package sim

import (
	"math"
	"slices"
)

// evKind says what a popped event does.
type evKind uint8

const (
	evService evKind = iota // copy id of server's task in service completes its draw w
	evFailure               // server's failure clock fires at its draw w
	evDeliver               // a group of tasks from src reaches server after its draw w
	evTick                  // the rebalancer decides
)

// event is what the agenda hands back when it pops: the fields its kind
// reads.
type event struct {
	kind evKind
	// fresh marks a draw of the fresh law — a service or a group
	// started at age 0 — which is traced; a residual draw is not.
	fresh bool
	// server is the serving, failing or receiving server; src and tasks
	// name a group; id is the winning copy of a service and copies how
	// many were launched with it.
	server, src, tasks, id, copies int
	// w is the draw; start is when the service or group started.
	w, start float64
}

// key orders the agenda: an event's time, then its sequence number.
type key struct {
	t   float64
	seq uint64
}

// none is an empty slot's key: it sorts after every event, +Inf-time
// ones included, so a scan never picks it.
var none = key{math.Inf(1), math.MaxUint64}

func (a key) before(b key) bool { return a.t < b.t || (a.t == b.t && a.seq < b.seq) }

// pending is a scheduled event under its key.
type pending struct {
	key
	ev event
}

// agenda is a realization's future-event list in fixed slots, in place
// of a heap. What the simulator schedules has a fixed shape: per server
// one task in service, whose Repl copies are drawn together and cancelled
// together, so only the earliest of them can ever fire; per server one
// failure clock, set at t = 0; the groups in the network; at most one
// rebalancer tick. The agenda keeps one slot for each (the service slot
// holding the earliest copy) and pops the least (time, seq) over them.
// Sequence numbers are handed out one per scheduled event, every copy
// included, so the agenda pops the sequence any correct future-event
// list over the same schedule pops, ties in scheduling order. The zero
// value is unusable; reset sizes it.
type agenda struct {
	service []pending // per server: the earliest pending copy, or none
	failure []pending // per server: the failure clock, or none
	// nextFailure indexes the earliest failure slot (-1: none pending):
	// failure clocks are set once and fire once, so it is recomputed
	// only then, and a pop scans the service slots and the groups.
	nextFailure int
	groups      []pending // in scheduling order
	tick        pending
	delivered   event // the last group popped

	now    float64
	seq    uint64
	events uint64 // events popped since reset
}

// reset empties the agenda for a realization over n servers at t = 0.
func (a *agenda) reset(n int) {
	if cap(a.service) < n {
		a.service = make([]pending, n)
		a.failure = make([]pending, n)
	}
	a.service, a.failure = a.service[:n], a.failure[:n]
	for k := range a.service {
		a.service[k].key = none
		a.failure[k].key = none
	}
	a.nextFailure = -1
	a.groups = a.groups[:0]
	a.tick.key = none
	a.now, a.seq, a.events = 0, 0, 0
}

// at is the key of an event scheduled now, after delay w. A negative
// delay panics: it would run the clock backwards.
func (a *agenda) at(w float64) key {
	if w < 0 {
		panic("sim: scheduling into the past")
	}
	a.seq++
	return key{a.now + w, a.seq}
}

// startService starts server k's next task, now, for the copies that
// serviceCopy adds.
func (a *agenda) startService(k int, fresh bool) {
	a.service[k] = pending{key: none, ev: event{kind: evService, fresh: fresh, server: k, start: a.now}}
}

// serviceCopy schedules the next copy of server k's task in service, its
// draw w; the slot keeps the earliest.
func (a *agenda) serviceCopy(k int, w float64) {
	sl := &a.service[k]
	if at := a.at(w); at.before(sl.key) {
		sl.key, sl.ev.id, sl.ev.w = at, sl.ev.copies, w
	}
	sl.ev.copies++
}

// inService reports how many copies of server k's task are pending.
func (a *agenda) inService(k int) int {
	if a.service[k].key == none {
		return 0
	}
	return a.service[k].ev.copies
}

// cancelService cancels every pending copy at server k.
func (a *agenda) cancelService(k int) { a.service[k].key = none }

// failAt schedules server k's failure clock to fire after its draw y.
func (a *agenda) failAt(k int, y float64) {
	a.failure[k] = pending{a.at(y), event{kind: evFailure, server: k, w: y}}
	if f := a.nextFailure; f < 0 || a.failure[k].before(a.failure[f].key) {
		a.nextFailure = k
	}
}

// deliverAt schedules a group's delivery after its draw ev.w.
func (a *agenda) deliverAt(ev event) {
	ev.kind = evDeliver
	a.groups = append(a.groups, pending{a.at(ev.w), ev})
}

// tickAt schedules the rebalancer's next decision at absolute time t,
// one period (> 0) after now.
func (a *agenda) tickAt(t float64) {
	a.seq++
	a.tick = pending{key{t, a.seq}, event{kind: evTick}}
}

// next removes the least pending event and returns it, advancing the
// clock to its time; it returns nil, the clock left alone, when none is
// pending. A service pop takes the whole task: its sibling copies go with
// it. The event is the agenda's, valid until the agenda next changes.
func (a *agenda) next() *event {
	best, kind, at := a.tick.key, evTick, 0
	if f := a.nextFailure; f >= 0 && a.failure[f].before(best) {
		best, kind, at = a.failure[f].key, evFailure, f
	}
	for k := range a.service {
		if a.service[k].before(best) {
			best, kind, at = a.service[k].key, evService, k
		}
	}
	for i := range a.groups {
		if a.groups[i].before(best) {
			best, kind, at = a.groups[i].key, evDeliver, i
		}
	}
	if best == none {
		return nil
	}
	a.now = best.t
	a.events++
	switch kind {
	case evTick:
		a.tick.key = none
		return &a.tick.ev
	case evFailure:
		a.failure[at].key = none
		a.nextFailure = -1
		for k := range a.failure {
			if a.failure[k].key != none && (a.nextFailure < 0 || a.failure[k].before(a.failure[a.nextFailure].key)) {
				a.nextFailure = k
			}
		}
		return &a.failure[at].ev
	case evService:
		a.cancelService(at)
		return &a.service[at].ev
	}
	a.delivered = a.groups[at].ev
	a.groups = slices.Delete(a.groups, at, at+1)
	return &a.delivered
}
