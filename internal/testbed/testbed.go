// Package testbed is the reproduction's stand-in for the paper's
// two-server Internet testbed (§III-B): a set of server goroutines in one
// process that exchange task-group and failure-notice messages over real
// TCP loopback connections, with service durations, injected transfer
// delays and failure times drawn from the same laws the paper fitted to
// its testbed (Pareto services, shifted-gamma transfers, exponential
// failures), in scaled wall-clock time.
//
// Every code path the analytical model describes is exercised by real
// concurrency and real message passing — queueing, batch arrivals,
// permanent mid-execution failures, tasks stranded at dead servers,
// reliable in-flight delivery — so agreement between the testbed's
// empirical statistics and the solvers' predictions validates the model
// the same way the paper's hardware experiment does, with only the time
// base substituted (1 model-second ≈ 1 wall-millisecond by default).
// DESIGN.md §4 records the substitution.
package testbed

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"dtr/internal/core"
	"dtr/internal/rngutil"
	"dtr/internal/trace"
)

// message is the on-wire frame (newline-delimited JSON over TCP).
type message struct {
	Kind  string `json:"kind"` // "group" or "fn"
	Src   int    `json:"src"`
	Tasks int    `json:"tasks,omitempty"`
}

// event is an occurrence reported by a server to the coordinator.
type event struct {
	kind      string // "served", "failed", "arrived", "lost"
	server    int
	tasks     int
	queueLeft int
	when      time.Time
}

// Outcome is the result of one testbed realization, in model time units.
type Outcome struct {
	Completed bool
	// Time is the workload execution time in model units when Completed.
	Time float64
	// Served counts tasks served per server.
	Served []int
	// ServiceSamples[k] holds the realized service durations at server k
	// and TransferSamples[k] the realized group-transfer durations sent
	// by server k (all in model units) — the raw material of the paper's
	// empirical characterization (Fig. 4(a,b)). Per-server separation
	// matters: the servers' laws differ.
	ServiceSamples  [][]float64
	TransferSamples [][]float64
}

// Testbed runs scaled-wall-clock realizations of a DCS model.
type Testbed struct {
	// Model supplies the laws; FN traffic is sent when Model.FN != nil.
	Model *core.Model
	// Scale is the wall duration of one model time unit (default 1 ms).
	Scale time.Duration
	// Seed drives all randomness; realization i uses streams derived
	// from (Seed, i).
	Seed uint64
	// MeasureWall, when true, reports the measured wall durations
	// (divided by Scale) in the outcome samples — including scheduler
	// noise, like a real testbed measurement; when false it reports the
	// drawn values.
	MeasureWall bool
	// Trace, when non-nil, receives every delay observation as a trace
	// event: service completions, injected transfer and failure-notice
	// delays, failures — plus right-censored observations for services
	// interrupted by a stop or failure and for failure clocks still
	// pending when the realization ends. The writer is shared across
	// server goroutines (it is concurrency-safe) and never consumes
	// randomness, so enabling it cannot perturb the realization.
	Trace *trace.Writer
}

// Run executes one realization of the canonical scenario: initial
// allocation, DTR policy at t = 0, run to completion or doom.
func (tb *Testbed) Run(initial []int, p core.Policy, realization int) (Outcome, error) {
	m := tb.Model
	if err := m.Validate(); err != nil {
		return Outcome{}, err
	}
	if err := p.Validate(initial); err != nil {
		return Outcome{}, err
	}
	scale := tb.Scale
	if scale == 0 {
		scale = time.Millisecond
	}
	n := m.N()
	tbRealizations.Inc()

	events := make(chan event, 1024)
	stopped := make(chan struct{})
	var wg sync.WaitGroup

	servers := make([]*node, n)
	addrs := make([]string, n)
	for k := 0; k < n; k++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return Outcome{}, fmt.Errorf("testbed: listen: %w", err)
		}
		defer ln.Close()
		addrs[k] = ln.Addr().String()
		servers[k] = &node{
			id: k, tb: tb, ln: ln, events: events,
			rng:     rngutil.Stream(tb.Seed, realization*64+k),
			queue:   initial[k] - sum(p[k]),
			up:      true,
			notify:  make(chan struct{}, 1),
			stopped: stopped,
			scale:   scale,
			wg:      &wg,
			rep:     realization,
		}
	}
	for k := 0; k < n; k++ {
		servers[k].addrs = addrs
	}

	start := time.Now()
	for k := 0; k < n; k++ {
		servers[k].t0 = start
	}
	total := 0
	queueLeft := make([]int, n)
	pendingTo := make([]int, n) // tasks in flight per destination
	for k := 0; k < n; k++ {
		queueLeft[k] = servers[k].queue
		total += initial[k]
		for j, l := range p[k] {
			pendingTo[j] += l
		}
	}

	for k := 0; k < n; k++ {
		servers[k].start(p[k])
	}

	out := Outcome{
		Served:          make([]int, n),
		ServiceSamples:  make([][]float64, n),
		TransferSamples: make([][]float64, n),
	}
	served := 0
	doomed := false
	deadline := time.After(10*time.Minute + time.Duration(total)*scale*1000)

loop:
	for served < total && !doomed {
		select {
		case ev := <-events:
			switch ev.kind {
			case "served":
				served++
				out.Served[ev.server]++
				queueLeft[ev.server]--
				if served == total {
					out.Completed = true
					out.Time = ev.when.Sub(start).Seconds() / scale.Seconds()
				}
			case "failed":
				if queueLeft[ev.server] > 0 || pendingTo[ev.server] > 0 {
					doomed = true
				}
			case "arrived":
				pendingTo[ev.server] -= ev.tasks
				queueLeft[ev.server] += ev.tasks
			case "lost":
				pendingTo[ev.server] -= ev.tasks
				doomed = true
			}
		case <-deadline:
			close(stopped)
			wg.Wait()
			return Outcome{}, fmt.Errorf("testbed: realization stalled")
		}
		if doomed {
			break loop
		}
	}

	close(stopped)
	for k := 0; k < n; k++ {
		servers[k].ln.Close()
	}
	wg.Wait()
	close(events)
	for ev := range events {
		// Drain stragglers so sample collection below sees everything.
		_ = ev
	}
	for k := 0; k < n; k++ {
		servers[k].mu.Lock()
		out.ServiceSamples[k] = append(out.ServiceSamples[k], servers[k].serviceSamples...)
		out.TransferSamples[k] = append(out.TransferSamples[k], servers[k].transferSamples...)
		servers[k].mu.Unlock()
	}
	return out, nil
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// node is the runtime state of one testbed server.
type node struct {
	id      int
	tb      *Testbed
	ln      net.Listener
	addrs   []string
	events  chan<- event
	rng     *rand.Rand
	queue   int
	up      bool
	mu      sync.Mutex
	notify  chan struct{}
	stopped chan struct{}
	scale   time.Duration
	wg      *sync.WaitGroup
	rep     int
	t0      time.Time

	serviceSamples  []float64
	transferSamples []float64
}

// trace emits one observation to the testbed's trace writer (a no-op
// without one), stamping the realization index and the model-time
// instant of the observation.
func (s *node) trace(ev trace.Event) {
	if s.tb.Trace == nil {
		return
	}
	ev.Rep = s.rep
	ev.T = time.Since(s.t0).Seconds() / s.scale.Seconds()
	_ = s.tb.Trace.Write(ev) // sticky error surfaces at Flush
}

// start launches the accept loop, the service loop, the failure timer and
// the policy's outgoing transfers.
func (s *node) start(row []int) {
	s.wg.Add(2)
	go s.acceptLoop()
	go s.serviceLoop()

	// Failure timer.
	if y := s.drawFailure(); !math.IsInf(y, 1) {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			began := time.Now()
			if !s.sleep(y) {
				// The realization ended with the server still up: a
				// right-censored time-to-failure observation.
				s.trace(trace.Event{Kind: trace.KindFailure, Server: s.id,
					Value: time.Since(began).Seconds() / s.scale.Seconds(), Censored: true})
				return
			}
			s.trace(trace.Event{Kind: trace.KindFailure, Server: s.id, Value: y})
			s.mu.Lock()
			s.up = false
			left := s.queue
			s.mu.Unlock()
			s.report(event{kind: "failed", server: s.id, queueLeft: left, when: time.Now()})
			s.wake()
			// Failure notices to all peers, if the model carries them.
			if s.tb.Model.FN != nil {
				for j := range s.addrs {
					if j == s.id {
						continue
					}
					x := s.sampleDist(func() float64 {
						return s.tb.Model.FN(s.id, j).Sample(s.rng)
					})
					tbFNTime.Observe(x)
					s.trace(trace.Event{Kind: trace.KindFN, Src: s.id, Dst: j, Value: x})
					s.sendAfter(x, j, message{Kind: "fn", Src: s.id})
				}
			}
		}()
	}

	// Outgoing task groups per the DTR policy, each with an injected
	// transfer delay drawn from the model's group-transfer law.
	for j, l := range row {
		if l == 0 {
			continue
		}
		z := s.sampleDist(func() float64 {
			return s.tb.Model.Transfer(l, s.id, j).Sample(s.rng)
		})
		s.recordTransfer(z)
		tbTransferTime.Observe(z)
		s.trace(trace.Event{Kind: trace.KindTransfer, Src: s.id, Dst: j, Tasks: l, Value: z})
		s.sendAfter(z, j, message{Kind: "group", Src: s.id, Tasks: l})
	}
}

// sendAfter sleeps the injected delay and then delivers the message over
// a fresh TCP connection — the in-flight group/notice of the model.
func (s *node) sendAfter(delay float64, dst int, msg message) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if !s.sleep(delay) {
			return
		}
		conn, err := net.DialTimeout("tcp", s.addrs[dst], 5*time.Second)
		if err != nil {
			tbSendFailed.Inc() // teardown race: listener already closed
			return
		}
		defer conn.Close()
		enc := json.NewEncoder(conn)
		if err := enc.Encode(&msg); err != nil {
			tbSendFailed.Inc()
			return
		}
		if msg.Kind == "fn" {
			tbFNSent.Inc()
		} else {
			tbGroupSent.Inc()
		}
	}()
}

func (s *node) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed at teardown
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			dec := json.NewDecoder(conn)
			var msg message
			if err := dec.Decode(&msg); err != nil {
				return
			}
			switch msg.Kind {
			case "group":
				tbGroupRecv.Inc()
				s.mu.Lock()
				alive := s.up
				if alive {
					s.queue += msg.Tasks
				}
				s.mu.Unlock()
				if alive {
					s.report(event{kind: "arrived", server: s.id, tasks: msg.Tasks, when: time.Now()})
					s.wake()
				} else {
					s.report(event{kind: "lost", server: s.id, tasks: msg.Tasks, when: time.Now()})
				}
			case "fn":
				// Failure notices update the perception matrix; no control
				// action is bound to them in this model.
				tbFNRecv.Inc()
			}
		}()
	}
}

// serviceLoop serves the queue. Each task's service begins at the
// previous one's deadline while tasks queue, so a timer that fires late
// does not push back the tasks behind it and service keeps pace with the
// failure clock; after the queue idles it begins when the next task
// arrives.
func (s *node) serviceLoop() {
	defer s.wg.Done()
	var began time.Time // the task's scheduled start; zero while idle
	for {
		s.mu.Lock()
		canServe := s.up && s.queue > 0
		s.mu.Unlock()
		if !canServe {
			began = time.Time{}
			select {
			case <-s.notify:
				continue
			case <-s.stopped:
				return
			}
		}
		if began.IsZero() {
			began = time.Now()
		}
		w := s.sampleDist(func() float64 {
			return s.tb.Model.EffectiveService(s.id).Sample(s.rng)
		})
		due := began.Add(time.Duration(w * float64(s.scale)))
		if !s.sleepUntil(due) {
			// Capture ended mid-service: right-censored at the elapsed
			// (measured) duration.
			s.trace(trace.Event{Kind: trace.KindService, Server: s.id,
				Value: time.Since(began).Seconds() / s.scale.Seconds(), Censored: true})
			return
		}
		s.mu.Lock()
		if !s.up {
			s.mu.Unlock()
			// The server failed mid-service; the task never completed.
			s.trace(trace.Event{Kind: trace.KindService, Server: s.id,
				Value: time.Since(began).Seconds() / s.scale.Seconds(), Censored: true})
			return
		}
		s.queue--
		s.mu.Unlock()
		measured := w
		if s.tb.MeasureWall {
			measured = time.Since(began).Seconds() / s.scale.Seconds()
		}
		s.recordService(measured)
		s.trace(trace.Event{Kind: trace.KindService, Server: s.id, Value: measured})
		s.report(event{kind: "served", server: s.id, when: time.Now()})
		began = due
	}
}

// sleep pauses for `units` model time units; it reports false if the
// testbed stopped first.
func (s *node) sleep(units float64) bool {
	return s.sleepUntil(time.Now().Add(time.Duration(units * float64(s.scale))))
}

// sleepUntil pauses until t (at once if t has passed); it reports false
// if the testbed stopped first.
func (s *node) sleepUntil(t time.Time) bool {
	select {
	case <-time.After(time.Until(t)):
		return true
	case <-s.stopped:
		return false
	}
}

func (s *node) wake() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

func (s *node) report(ev event) {
	select {
	case s.events <- ev:
	case <-s.stopped:
	}
}

func (s *node) drawFailure() float64 {
	return s.sampleDist(func() float64 {
		return s.tb.Model.Failure[s.id].Sample(s.rng)
	})
}

func (s *node) sampleDist(draw func() float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return draw()
}

func (s *node) recordService(w float64) {
	s.mu.Lock()
	s.serviceSamples = append(s.serviceSamples, w)
	s.mu.Unlock()
}

func (s *node) recordTransfer(z float64) {
	s.mu.Lock()
	s.transferSamples = append(s.transferSamples, z)
	s.mu.Unlock()
}
