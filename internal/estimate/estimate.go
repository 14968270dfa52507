// Package estimate models the queue-length information exchange that the
// paper's problem statement assumes (§II-A): "queue-length information
// messages are frequently exchanged by the servers. The information on
// these messages is used by the servers to estimate the queue-length of
// the remaining servers" — and, because the network delays every message,
// those estimates are *dated*: server i knows server j's queue as it was
// when the last delivered packet left j, not as it is now.
//
// Take runs the DCS through a warm-up period with periodic queue-length
// broadcasts in flight and returns both the true queues at decision time
// and each server's dated view — exactly the m̂_{j,i} inputs of
// Algorithm 1. The staleness experiment (exper.Staleness) quantifies how
// much policy quality decays as the information ages.
package estimate

import (
	"container/heap"
	"fmt"
	"math"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/rngutil"
)

// Exchange describes the information-exchange regime.
type Exchange struct {
	// Model supplies the service laws used during warm-up (failures are
	// not injected during warm-up: the study isolates the information
	// effect from the failure process).
	Model *core.Model
	// Period is the time between queue-length broadcasts (> 0).
	Period float64
	// PacketDelay returns the transfer-time law of an information packet
	// from src to dst. nil means instantaneous packets (periodic but
	// undelayed information).
	PacketDelay func(src, dst int) dist.Dist
	// Seed anchors the randomness.
	Seed uint64
}

// Snapshot is the state of knowledge at decision time.
type Snapshot struct {
	// Queues are the true queue lengths.
	Queues []int
	// Estimates[i][j] is server i's dated estimate of server j's queue
	// (Estimates[i][i] is exact: a server knows itself).
	Estimates [][]int
	// SentAt[i][j] is the send time of the packet behind Estimates[i][j],
	// or -1 if no packet arrived (the estimate is the initial allocation).
	SentAt [][]float64
	// Warmup is the decision time the snapshot was taken at.
	Warmup float64
}

// MeanStaleness returns the average age of the off-diagonal estimates;
// pairs that never received a packet count as fully stale (age = Warmup).
func (s *Snapshot) MeanStaleness() float64 {
	var sum float64
	var cnt int
	for i := range s.SentAt {
		for j := range s.SentAt[i] {
			if i == j {
				continue
			}
			if s.SentAt[i][j] < 0 {
				sum += s.Warmup
			} else {
				sum += s.Warmup - s.SentAt[i][j]
			}
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// MaxAbsError returns the largest |estimate − truth| across server pairs,
// a direct measure of how wrong the dated information is.
func (s *Snapshot) MaxAbsError() int {
	worst := 0
	for i := range s.Estimates {
		for j := range s.Estimates[i] {
			d := s.Estimates[i][j] - s.Queues[j]
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

// event is what the warm-up schedules: server finishes a task, server
// broadcasts its queue length, or the packet carrying value (server's
// queue when it was sent) reaches dst.
type event struct {
	kind        uint8
	server, dst int
	sent        float64
	value       int
}

const (
	evServed uint8 = iota
	evBroadcast
	evPacket
)

// agenda is the warm-up's future-event list: a heap of events ordered by
// time, then by scheduling order, so events at equal times run in the
// order they were scheduled.
type agenda struct {
	pending []scheduled
	seq     uint64
	now     float64
}

type scheduled struct {
	t   float64
	seq uint64
	ev  event
}

func (a *agenda) Len() int { return len(a.pending) }
func (a *agenda) Less(i, j int) bool {
	x, y := a.pending[i], a.pending[j]
	return x.t < y.t || (x.t == y.t && x.seq < y.seq)
}
func (a *agenda) Swap(i, j int) { a.pending[i], a.pending[j] = a.pending[j], a.pending[i] }
func (a *agenda) Push(x any)    { a.pending = append(a.pending, x.(scheduled)) }
func (a *agenda) Pop() any {
	last := a.pending[len(a.pending)-1]
	a.pending = a.pending[:len(a.pending)-1]
	return last
}

// schedule enqueues ev at absolute time t. Scheduling before now panics:
// it is always a logic error in a simulation.
func (a *agenda) schedule(t float64, ev event) {
	if t < a.now {
		panic("estimate: scheduling into the past")
	}
	a.seq++
	heap.Push(a, scheduled{t, a.seq, ev})
}

// next removes and returns the earliest pending event, advancing the
// clock to its time, unless none is pending at or before tmax.
func (a *agenda) next(tmax float64) (event, bool) {
	if len(a.pending) == 0 || a.pending[0].t > tmax {
		return event{}, false
	}
	a.now = a.pending[0].t
	return heap.Pop(a).(scheduled).ev, true
}

// Take simulates the DCS serving its workload for warmup time units with
// periodic queue-length broadcasts and returns the snapshot at decision
// time. Estimates default to the initial allocation until a first packet
// arrives — the best information available at t = 0.
func (e *Exchange) Take(initial []int, warmup float64, realization int) (*Snapshot, error) {
	if err := e.Model.Validate(); err != nil {
		return nil, err
	}
	if e.Period <= 0 || math.IsNaN(e.Period) {
		return nil, fmt.Errorf("estimate: Period must be positive, got %g", e.Period)
	}
	if warmup < 0 || math.IsNaN(warmup) {
		return nil, fmt.Errorf("estimate: negative warmup %g", warmup)
	}
	n := e.Model.N()
	if len(initial) != n {
		return nil, fmt.Errorf("estimate: %d servers but %d initial queues", n, len(initial))
	}

	r := rngutil.Stream(e.Seed, realization)
	var q agenda

	snap := &Snapshot{
		Queues: append([]int(nil), initial...),
		Warmup: warmup,
	}
	for i := 0; i < n; i++ {
		snap.Estimates = append(snap.Estimates, append([]int(nil), initial...))
		ages := make([]float64, n)
		for j := range ages {
			ages[j] = -1
		}
		snap.SentAt = append(snap.SentAt, ages)
	}

	// Service processes.
	serve := func(k int) {
		if snap.Queues[k] > 0 {
			q.schedule(q.now+e.Model.EffectiveService(k).Sample(r), event{kind: evServed, server: k})
		}
	}
	for k := 0; k < n; k++ {
		serve(k)
	}
	// Periodic broadcasts, none past the decision time.
	tick := func(j int, t float64) {
		if t <= warmup {
			q.schedule(t, event{kind: evBroadcast, server: j})
		}
	}
	for j := 0; j < n; j++ {
		tick(j, e.Period)
	}

	for {
		ev, ok := q.next(warmup)
		if !ok {
			break
		}
		switch j := ev.server; ev.kind {
		case evServed:
			snap.Queues[j]--
			serve(j)
		case evBroadcast:
			// Server j snapshots its queue and sends it to every peer with
			// a random packet delay.
			sent := q.now
			for i := 0; i < n; i++ {
				if i == j {
					continue
				}
				var delay float64
				if e.PacketDelay != nil {
					delay = e.PacketDelay(j, i).Sample(r)
				}
				if arrive := sent + delay; arrive <= warmup { // else still in flight at decision time
					q.schedule(arrive, event{kind: evPacket, server: j, dst: i, sent: sent, value: snap.Queues[j]})
				}
			}
			tick(j, sent+e.Period)
		case evPacket:
			// Packets overtaken by fresher ones are ignored on arrival.
			if ev.sent > snap.SentAt[ev.dst][j] {
				snap.SentAt[ev.dst][j] = ev.sent
				snap.Estimates[ev.dst][j] = ev.value
			}
		}
	}
	for i := 0; i < n; i++ {
		snap.Estimates[i][i] = snap.Queues[i]
		snap.SentAt[i][i] = warmup
	}
	return snap, nil
}
