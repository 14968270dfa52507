// Package des is a minimal discrete-event simulation core: a virtual
// clock and a time-ordered queue of typed value events with
// deterministic FIFO tie-breaking, on which the virtual-time experiments
// (internal/estimate) are built, and the process-wide count of events
// run, which the DCS Monte-Carlo simulator's fixed-slot agenda
// (internal/sim) adds to. The queue stores and returns events; what an
// event does is the caller's switch over its own event type, so
// scheduling and running an event allocate nothing.
package des

import "dtr/internal/obs"

// eventsProcessed counts events run across all queues in the process,
// and the simulator's — the event-loop throughput of the simulators.
// Queues batch locally and publish via FlushStats (the simulator via
// CountProcessed), so the hot loop never touches shared state.
var eventsProcessed = obs.NewCounter("dtr_des_events_total")

// Queue is a future-event list over events of type E: a binary heap of
// (time, seq, slot) entries ordered by (time, seq), with the events
// themselves in an arena indexed by slot so sifting moves three words
// and a pending event is found by its slot. The zero value is ready to
// use.
type Queue[E any] struct {
	heap []entry
	evs  []E     // arena: the event held by each slot
	pos  []int32 // heap index of each slot's entry, -1 when the slot is free
	free []int32

	nextSq    uint64
	now       float64
	processed uint64
}

type entry struct {
	time float64
	seq  uint64
	slot int32
}

// Handle names one scheduled event for Cancel. The zero Handle names no
// event.
type Handle struct {
	slot int32
	seq  uint64
}

// Now returns the current virtual time (the time of the last event run).
func (q *Queue[E]) Now() float64 { return q.now }

// Len returns the number of pending events.
func (q *Queue[E]) Len() int { return len(q.heap) }

// FlushStats publishes the processed-event count to the metrics
// registry (dtr_des_events_total) and resets it; drivers call it at
// batch points — the Monte-Carlo simulator flushes once per replication.
func (q *Queue[E]) FlushStats() {
	eventsProcessed.Add(q.processed)
	q.processed = 0
}

// CountProcessed adds n events run outside a Queue to
// dtr_des_events_total.
func CountProcessed(n uint64) { eventsProcessed.Add(n) }

// Schedule enqueues ev at absolute virtual time t. Scheduling in the
// past (t < Now) panics: it is always a logic error in a simulation.
// Events at equal times run in scheduling (FIFO) order.
func (q *Queue[E]) Schedule(t float64, ev E) Handle {
	if t < q.now {
		panic("des: scheduling into the past")
	}
	var slot int32
	if n := len(q.free); n > 0 {
		slot, q.free = q.free[n-1], q.free[:n-1]
		q.evs[slot] = ev
	} else {
		slot = int32(len(q.evs))
		q.evs = append(q.evs, ev)
		q.pos = append(q.pos, 0)
	}
	q.nextSq++
	q.heap = append(q.heap, entry{time: t, seq: q.nextSq, slot: slot})
	q.up(len(q.heap) - 1)
	return Handle{slot: slot, seq: q.nextSq}
}

// Cancel removes a pending event; cancelling an already-run or
// already-cancelled event is a no-op.
func (q *Queue[E]) Cancel(h Handle) {
	if h.seq == 0 || int(h.slot) >= len(q.pos) {
		return
	}
	if i := q.pos[h.slot]; i >= 0 && q.heap[i].seq == h.seq {
		q.remove(int(i))
	}
}

// Next removes and returns the earliest pending event, advancing the
// clock to its time, unless that would pass tmax: then the event stays
// pending, the clock advances to tmax and ok is false. It also reports
// false, leaving the clock alone, when no events remain.
func (q *Queue[E]) Next(tmax float64) (ev E, ok bool) {
	if len(q.heap) == 0 {
		return ev, false
	}
	if q.heap[0].time > tmax {
		q.now = max(q.now, tmax)
		return ev, false
	}
	q.now = q.heap[0].time
	q.processed++
	return q.remove(0), true
}

// remove takes entry i out of the heap, frees its slot and returns its
// event.
func (q *Queue[E]) remove(i int) E {
	slot := q.heap[i].slot
	last := len(q.heap) - 1
	q.heap[i] = q.heap[last]
	q.heap = q.heap[:last]
	if i != last {
		q.down(i)
		q.up(i)
	}
	q.pos[slot] = -1
	q.free = append(q.free, slot)
	return q.evs[slot]
}

// before is the queue's total order: time, then scheduling order.
func (a entry) before(b entry) bool {
	return a.time < b.time || (a.time == b.time && a.seq < b.seq)
}

func (q *Queue[E]) up(i int) {
	e := q.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(q.heap[parent]) {
			break
		}
		q.heap[i] = q.heap[parent]
		q.pos[q.heap[i].slot] = int32(i)
		i = parent
	}
	q.heap[i] = e
	q.pos[e.slot] = int32(i)
}

func (q *Queue[E]) down(i int) {
	e := q.heap[i]
	for {
		child := 2*i + 1
		if child >= len(q.heap) {
			break
		}
		if r := child + 1; r < len(q.heap) && q.heap[r].before(q.heap[child]) {
			child = r
		}
		if !q.heap[child].before(e) {
			break
		}
		q.heap[i] = q.heap[child]
		q.pos[q.heap[i].slot] = int32(i)
		i = child
	}
	q.heap[i] = e
	q.pos[e.slot] = int32(i)
}
