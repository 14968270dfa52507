// Package sim is the Monte-Carlo simulator of the DCS: a discrete-event
// realization of exactly the stochastic model the analytic solvers
// evaluate (general service, failure and transfer laws; permanent
// failures; no task recovery; reliable message passing). The paper uses
// Monte-Carlo simulation to evaluate multi-server policies (Table II) and
// to validate the testbed predictions (Fig. 4(c)); this package plays the
// same role here, and doubles as an independent check on the analytic
// solvers in the tests.
package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/des"
	"dtr/internal/obs"
	"dtr/internal/par"
	"dtr/internal/rngutil"
	"dtr/internal/stat"
	"dtr/internal/trace"
)

// Outcome is the result of one simulated realization.
type Outcome struct {
	// Completed reports that every task was served (T < ∞).
	Completed bool
	// Time is the workload execution time when Completed (the instant the
	// last task finished), otherwise the time at which completion became
	// impossible.
	Time float64
	// Served counts tasks served per server.
	Served []int
	// BusyTime is the total time each server spent serving (the paper's
	// resource-utilization discussion in §III-A compares how evenly
	// optimal policies keep the servers busy).
	BusyTime []float64
	// FailuresSeen counts servers that failed before the run ended.
	FailuresSeen int
	// CopiesCancelled counts replicated service copies cancelled because
	// a sibling copy finished first (cancel-on-first-complete). Always 0
	// when no server has a replication factor above 1.
	CopiesCancelled int
}

// Rebalancer re-runs a DTR decision periodically during execution,
// generalizing the canonical single-shot reallocation to the paper's
// framing of DTR as a run-time control action. Decide sees the true
// queue lengths and liveness (perfect, instantaneous information — an
// idealization; see internal/estimate for the dated-information study)
// and returns how many tasks each server ships; infeasible entries are
// clamped to what the sender actually holds beyond its in-service task.
type Rebalancer struct {
	// Period between decisions (> 0); the first decision runs at Period
	// (the t = 0 policy is the state's own group set).
	Period float64
	// Decide returns the shipment matrix for the observed configuration.
	Decide func(queues []int, up []bool) core.Policy
}

// evKind says what a scheduled event does when the loop pops it.
type evKind uint8

const (
	evService evKind = iota // copy id of the task in service at server completes its draw w
	evFailure               // server's failure clock fires at its draw w
	evDeliver               // group id (tasks from src) reaches dst after its draw w
	evTick                  // the rebalancer decides
)

// event is what the realization schedules: a value holding the fields
// its kind reads, so scheduling one allocates nothing.
type event struct {
	kind                        evKind
	server, src, dst, tasks, id int
	w                           float64
}

// inflightXfer is a fresh group in the network, remembered while tracing
// for the observation it becomes: its transfer time on delivery, a
// censored one if the capture ends first. Groups already aged at t = 0
// are residual-time draws and are not remembered.
type inflightXfer struct {
	id, src, dst, tasks int
	start               float64
}

// run is one realization in progress: the event queue, the part of the
// state the realization mutates (queue lengths and liveness; the ages
// and groups of the start state s are only read) and the bookkeeping the
// event handlers share.
type run struct {
	m  *core.Model
	s  *core.State
	r  *rand.Rand
	rb *Rebalancer
	q  des.Queue[event]
	// tw, when set, receives the realization's trace events, stamped rep.
	tw  *trace.Writer
	rep int

	queue []int
	up    []bool
	out   Outcome

	remainingGroups []int // groups still heading to each server
	pendingGroups   int
	// copies[k] holds the pending service-copy events of the task in
	// service at server k: one event normally, Repl[k] events under
	// replication (the first to fire cancels its siblings).
	copies       [][]des.Handle
	serviceStart []float64
	serviceAged  []bool
	// inflight lists the traced groups in the network in transfer-id
	// order, so the censored lines of a capture come out in one order.
	inflight []inflightXfer
	xferID   int
	ticks    int

	doomed, finished bool
}

// RunTraced simulates one realization starting from state s under model
// m, consuming randomness from r, with an optional periodic rebalancer rb
// and an optional trace writer tw (replication index rep) receiving
// every fresh-law delay observation of the realization — service
// completions, transfer deliveries, failures — plus right-censored
// observations for services and transfers still in progress and
// servers still alive when the realization ends. The input state is not
// modified. Tracing never draws randomness, so outcomes are bit-identical
// with and without it.
func RunTraced(m *core.Model, s *core.State, r *rand.Rand, rb *Rebalancer, tw *trace.Writer, rep int) Outcome {
	n := m.N()
	rn := run{
		m: m, s: s, r: r, rb: rb, tw: tw, rep: rep,
		queue:           append([]int(nil), s.Queue...),
		up:              append([]bool(nil), s.Up...),
		out:             Outcome{Served: make([]int, n), BusyTime: make([]float64, n)},
		remainingGroups: make([]int, n),
		copies:          make([][]des.Handle, n),
		serviceStart:    make([]float64, n),
		serviceAged:     make([]bool, n),
	}
	defer rn.q.FlushStats()

	// Per server: room for its service copies, and its failure clock.
	for k := 0; k < n; k++ {
		rn.copies[k] = make([]des.Handle, 0, m.ReplFactor(k))
		if !rn.up[k] {
			continue
		}
		if _, never := m.Failure[k].(dist.Never); never {
			continue
		}
		fd := m.Failure[k]
		if s.AgeY[k] > 0 {
			fd = fd.Aged(s.AgeY[k])
		}
		if y := fd.Sample(r); !math.IsInf(y, 1) {
			rn.q.Schedule(y, event{kind: evFailure, server: k, w: y})
		}
	}
	// In-flight groups of the initial state.
	for _, g := range s.Groups {
		rn.dispatch(g.Src, g.Dst, g.Tasks, g.Age)
	}
	// Periodic rebalancing decisions, if configured.
	if rb != nil && rb.Period > 0 && rb.Decide != nil {
		rn.scheduleTick(rb.Period)
	}
	// Services in progress at t = 0.
	for k := 0; k < n; k++ {
		rn.scheduleService(k, s.AgeW[k])
	}
	rn.checkDone() // trivially empty workloads complete at t = 0

	for !rn.finished && !rn.doomed {
		ev, ok := rn.q.Next(math.Inf(1))
		if !ok {
			// Queue drained without completion: only possible when a task
			// can never be served (e.g. Never service law) — treat as doomed.
			rn.doomed = true
			rn.out.Time = rn.q.Now()
			break
		}
		switch ev.kind {
		case evService:
			rn.serviceDone(ev.server, ev.id, ev.w)
		case evFailure:
			rn.fail(ev.server, ev.w)
		case evDeliver:
			rn.deliver(ev)
		case evTick:
			rn.rebalance()
		}
	}
	if tw != nil {
		rn.traceCensored()
	}
	return rn.out
}

// emit traces one observation at the current instant; without a writer
// it is a no-op. Only age-zero draws are emitted: a draw from an aged law
// is a residual-time sample, not a sample of the fresh law the fitters
// estimate.
func (rn *run) emit(ev trace.Event) {
	if rn.tw == nil {
		return
	}
	ev.Rep = rn.rep
	ev.T = rn.q.Now()
	_ = rn.tw.Write(ev) // sticky error surfaces at Flush
}

func (rn *run) checkDone() {
	if rn.doomed || rn.pendingGroups != 0 {
		return
	}
	for _, q := range rn.queue {
		if q != 0 {
			return
		}
	}
	rn.finished = true
	rn.out.Completed = true
	rn.out.Time = rn.q.Now()
}

// scheduleService starts the next task at server k, its service time
// already aged by `aged` on a state resume.
func (rn *run) scheduleService(k int, aged float64) {
	if !rn.up[k] || rn.queue[k] == 0 {
		return
	}
	d := rn.m.Service[k]
	if aged > 0 {
		// On a state resume the task's copies were launched together,
		// so every copy's residual law carries the same age.
		d = d.Aged(aged)
	}
	now := rn.q.Now()
	rn.serviceStart[k] = now
	rn.serviceAged[k] = aged > 0
	// Spawn Repl[k] i.i.d. copies; the first completion wins and cancels
	// its siblings (cancel-on-first-complete). For one copy this is
	// exactly one draw and one event — the pre-replication stream.
	rn.copies[k] = rn.copies[k][:0]
	for i, c := 0, rn.m.ReplFactor(k); i < c; i++ {
		w := d.Sample(rn.r)
		rn.copies[k] = append(rn.copies[k], rn.q.Schedule(now+w, event{kind: evService, server: k, id: i, w: w}))
	}
}

// serviceDone completes the task in service at server k through its
// copy i, whose draw was w.
func (rn *run) serviceDone(k, i int, w float64) {
	c := len(rn.copies[k])
	for j, h := range rn.copies[k] {
		if j != i {
			rn.q.Cancel(h)
			rn.out.CopiesCancelled++
		}
	}
	rn.copies[k] = rn.copies[k][:0]
	rn.queue[k]--
	rn.out.Served[k]++
	rn.out.BusyTime[k] += w
	if !rn.serviceAged[k] && c == 1 {
		// Replicated completions are min-of-k draws, not samples of
		// the fresh service law the fitters estimate, so only
		// factor-1 draws are traced.
		rn.emit(trace.Event{Kind: trace.KindService, Server: k, Value: w})
	}
	if rn.queue[k] > 0 {
		rn.scheduleService(k, 0)
	}
	rn.checkDone()
}

// fail takes server k down at its failure-clock draw y.
func (rn *run) fail(k int, y float64) {
	if !rn.up[k] {
		return
	}
	rn.up[k] = false
	rn.out.FailuresSeen++
	if rn.s.AgeY[k] == 0 {
		rn.emit(trace.Event{Kind: trace.KindFailure, Server: k, Value: y})
	}
	for _, h := range rn.copies[k] {
		rn.q.Cancel(h)
	}
	rn.copies[k] = rn.copies[k][:0]
	if rn.queue[k] > 0 || rn.remainingGroups[k] > 0 {
		rn.doomed = true
		rn.out.Time = rn.q.Now()
	}
}

// dispatch launches a task group into the network: one transfer draw
// (aged for groups already in flight at t = 0), then delivery —
// fatally late if the destination has meanwhile failed.
func (rn *run) dispatch(src, dst, tasks int, age float64) {
	td := rn.m.Transfer(tasks, src, dst)
	if age > 0 {
		td = td.Aged(age)
	}
	z := td.Sample(rn.r)
	id := rn.xferID
	rn.xferID++
	if rn.tw != nil && age <= 0 {
		rn.inflight = append(rn.inflight, inflightXfer{id: id, src: src, dst: dst, tasks: tasks, start: rn.q.Now()})
	}
	rn.pendingGroups++
	rn.remainingGroups[dst]++
	rn.q.Schedule(rn.q.Now()+z, event{kind: evDeliver, src: src, dst: dst, tasks: tasks, id: id, w: z})
}

func (rn *run) deliver(ev event) {
	rn.pendingGroups--
	rn.remainingGroups[ev.dst]--
	if i := slices.IndexFunc(rn.inflight, func(fl inflightXfer) bool { return fl.id == ev.id }); i >= 0 {
		rn.emit(trace.Event{Kind: trace.KindTransfer, Src: ev.src, Dst: ev.dst, Tasks: ev.tasks, Value: ev.w})
		rn.inflight = slices.Delete(rn.inflight, i, i+1)
	}
	if !rn.up[ev.dst] {
		rn.doomed = true
		rn.out.Time = rn.q.Now()
		return
	}
	wasIdle := rn.queue[ev.dst] == 0
	rn.queue[ev.dst] += ev.tasks
	if wasIdle {
		rn.scheduleService(ev.dst, 0)
	}
}

// scheduleTick books the next rebalancing decision. The tick count is
// capped so a pathological model (a task that can never be served)
// cannot keep the event loop alive forever; once ticking stops, the
// queue drains and the run resolves through the usual outcome logic.
func (rn *run) scheduleTick(t float64) {
	const maxTicks = 1 << 20
	if rn.ticks++; rn.ticks <= maxTicks {
		rn.q.Schedule(t, event{kind: evTick})
	}
}

// rebalance runs one decision of the rebalancer and ships what it asks
// for, clamped to what each sender holds beyond its task in service.
func (rn *run) rebalance() {
	n := len(rn.queue)
	pol := rn.rb.Decide(append([]int(nil), rn.queue...), append([]bool(nil), rn.up...))
	for i := range pol {
		if i >= n || !rn.up[i] {
			continue
		}
		// The task in service cannot be shipped.
		shippable := rn.queue[i]
		if len(rn.copies[i]) > 0 {
			shippable--
		}
		for j, l := range pol[i] {
			if l = min(l, shippable); j == i || j >= n || l <= 0 {
				continue
			}
			rn.queue[i] -= l
			shippable -= l
			rn.dispatch(i, j, l, 0)
		}
	}
	rn.scheduleTick(rn.q.Now() + rn.rb.Period)
}

// traceCensored emits the right-censored observations at capture end:
// services still in progress, transfers still in flight, servers still
// alive. Their realized durations exceed the recorded elapsed values.
func (rn *run) traceCensored() {
	end := rn.q.Now()
	for k := range rn.queue {
		if len(rn.copies[k]) == 1 && !rn.serviceAged[k] {
			rn.emit(trace.Event{Kind: trace.KindService, Server: k,
				Value: end - rn.serviceStart[k], Censored: true})
		}
		if rn.up[k] && rn.s.AgeY[k] == 0 && end > 0 {
			rn.emit(trace.Event{Kind: trace.KindFailure, Server: k,
				Value: end, Censored: true})
		}
	}
	for _, fl := range rn.inflight {
		rn.emit(trace.Event{Kind: trace.KindTransfer, Src: fl.src, Dst: fl.dst,
			Tasks: fl.tasks, Value: end - fl.start, Censored: true})
	}
}

// Options configures a Monte-Carlo estimation run.
type Options struct {
	// Reps is the number of independent realizations (required).
	Reps int
	// Seed makes the whole estimate deterministic; replication i uses
	// rngutil.Stream(Seed, i) regardless of worker scheduling.
	Seed uint64
	// Workers bounds the worker pool (default: GOMAXPROCS).
	Workers int
	// Deadline is the QoS threshold TM; 0 disables the QoS estimate.
	Deadline float64
	// Level is the confidence level for intervals (default 0.95).
	Level float64
	// Rebalance, when non-nil, re-runs a DTR decision periodically in
	// every replication (see Rebalancer).
	Rebalance *Rebalancer
	// Trace, when non-nil, receives every replication's delay
	// observations (see RunTraced). Events from concurrent replications
	// interleave in an unspecified order; the Rep field disambiguates.
	// Tracing draws no randomness, so estimates are unchanged by it.
	Trace *trace.Writer
}

// Estimates summarizes a Monte-Carlo run; every metric carries the
// half-width of its confidence interval at Options.Level, matching the
// paper's "centers of 95% confidence intervals" reporting.
type Estimates struct {
	Reps int
	// Reliability is the fraction of realizations that completed.
	Reliability, ReliabilityHalf float64
	// QoS is the fraction that completed within Deadline (NaN if the
	// deadline was not set).
	QoS, QoSHalf float64
	// MeanTime is the average execution time over *completed*
	// realizations (the unconditional mean when every run completes).
	MeanTime, MeanTimeHalf float64
	Completed              int
}

// Estimate runs Monte-Carlo replications of the canonical scenario:
// initial allocation + DTR policy at t = 0.
func Estimate(m *core.Model, initial []int, p core.Policy, opt Options) (Estimates, error) {
	s, err := core.NewState(m, initial, p)
	if err != nil {
		return Estimates{}, err
	}
	return EstimateState(m, s, opt)
}

// EstimateState runs Monte-Carlo replications from an arbitrary state.
func EstimateState(m *core.Model, s *core.State, opt Options) (Estimates, error) {
	if err := m.Validate(); err != nil {
		return Estimates{}, err
	}
	if opt.Reps <= 0 {
		return Estimates{}, fmt.Errorf("sim: Options.Reps must be positive, got %d", opt.Reps)
	}
	level := opt.Level
	if level == 0 {
		level = 0.95
	}
	workers := min(par.Workers(opt.Workers), opt.Reps)

	defer obs.StartSpan("replicate", "reps", opt.Reps, "workers", workers)()
	instrumented := obs.Default() != nil

	// Per-worker busy-time gauges: a worker far ahead of its peers means
	// straggling replications dominate the wall clock.
	busy := make([]*obs.Gauge, workers)
	for w := range busy {
		busy[w] = obs.Default().Gauge(obs.Name("dtr_sim_worker_busy_seconds", "worker", w))
	}
	outcomes := make([]Outcome, opt.Reps)
	_ = par.ForEach(workers, opt.Reps, func(w, i int) error { // a replication cannot fail
		if !instrumented {
			outcomes[i] = RunTraced(m, s, rngutil.Stream(opt.Seed, i), opt.Rebalance, opt.Trace, i)
			return nil
		}
		t0 := time.Now()
		out := RunTraced(m, s, rngutil.Stream(opt.Seed, i), opt.Rebalance, opt.Trace, i)
		outcomes[i] = out
		busy[w].Add(time.Since(t0).Seconds())
		simWall.ObserveSince(t0)
		simReps.Inc()
		simFailures.Add(uint64(out.FailuresSeen))
		if out.Completed {
			simCompleted.Inc()
			simTime.Observe(out.Time)
		}
		return nil
	})

	est := Estimates{Reps: opt.Reps}
	var times []float64
	within := 0
	for _, o := range outcomes {
		if o.Completed {
			est.Completed++
			times = append(times, o.Time)
			if opt.Deadline > 0 && o.Time < opt.Deadline {
				within++
			}
		}
	}
	est.Reliability, est.ReliabilityHalf = stat.ProportionCI(est.Completed, opt.Reps, level)
	if opt.Deadline > 0 {
		est.QoS, est.QoSHalf = stat.ProportionCI(within, opt.Reps, level)
	} else {
		est.QoS, est.QoSHalf = math.NaN(), math.NaN()
	}
	if len(times) > 0 {
		est.MeanTime, est.MeanTimeHalf = stat.MeanCI(times, level)
	} else {
		est.MeanTime, est.MeanTimeHalf = math.NaN(), math.NaN()
	}
	return est, nil
}
