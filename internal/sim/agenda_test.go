package sim

import (
	"math"
	"math/rand/v2"
	"testing"
)

// mirrored is what the reference queue holds for an agenda event: its
// kind, the server (or group number) and, for a service copy, the copy
// index.
type mirrored struct {
	kind       evKind
	server, id int
}

// refQueue is the future-event list the agenda is held to, as plain as
// one can be written: every scheduled event in a list under its time and
// a sequence number handed out once per schedule call, a pop the least
// live (time, seq) by a full scan, and popped or cancelled events marked
// dead.
type refQueue struct {
	t    []float64
	ev   []mirrored
	dead []bool
	now  float64
}

// schedule enqueues ev after delay w and returns its index for cancel.
func (q *refQueue) schedule(w float64, ev mirrored) int {
	q.t = append(q.t, q.now+w)
	q.ev = append(q.ev, ev)
	q.dead = append(q.dead, false)
	return len(q.t) - 1
}

func (q *refQueue) cancel(i int) { q.dead[i] = true }

func (q *refQueue) next() (mirrored, bool) {
	best := -1
	for i := range q.t {
		// The index is the sequence number: a later schedule call, a
		// larger index.
		if !q.dead[i] && (best < 0 || q.t[i] < q.t[best]) {
			best = i
		}
	}
	if best < 0 {
		return mirrored{}, false
	}
	q.dead[best] = true
	q.now = q.t[best]
	return q.ev[best], true
}

// TestAgendaMatchesQueue drives the agenda and the reference queue with
// the same random schedules — delays from a small set so times tie often,
// +Inf among them, replication factors up to 16, services cancelled as a
// failure cancels them — and requires the same pop sequence: the same
// event at the same time, a service through the same winning copy.
func TestAgendaMatchesQueue(t *testing.T) {
	delays := []float64{0, 0, 1, 1, 2, 3.5, math.Inf(1)}
	for trial := 0; trial < 300; trial++ {
		r := rand.New(rand.NewPCG(uint64(trial), 11))
		n := 1 + r.IntN(6)
		var a agenda
		a.reset(n)
		var q refQueue
		copies := make([][]int, n)
		failSet := make([]bool, n)
		tickSet := false
		groups, pops := 0, 0
		delay := func() float64 { return delays[r.IntN(len(delays))] }

		for step := 0; step < 400; step++ {
			switch k := r.IntN(n); r.IntN(6) {
			case 0:
				if len(copies[k]) > 0 {
					continue
				}
				a.startService(k, true)
				for i, c := 0, 1+r.IntN(16); i < c; i++ {
					w := delay()
					a.serviceCopy(k, w)
					copies[k] = append(copies[k], q.schedule(w, mirrored{evService, k, i}))
				}
			case 1:
				if failSet[k] {
					continue
				}
				failSet[k] = true
				y := delay()
				a.failAt(k, y)
				q.schedule(y, mirrored{evFailure, k, 0})
			case 2:
				w := delay()
				a.deliverAt(event{server: k, tasks: groups, w: w})
				q.schedule(w, mirrored{evDeliver, groups, 0})
				groups++
			case 3:
				if tickSet {
					continue
				}
				tickSet = true
				w := delay()
				a.tickAt(a.now + w)
				q.schedule(w, mirrored{evTick, 0, 0})
			case 4:
				a.cancelService(k)
				for _, h := range copies[k] {
					q.cancel(h)
				}
				copies[k] = nil
			default:
				ev := a.next()
				want, ok := q.next()
				if (ev != nil) != ok {
					t.Fatalf("trial %d step %d: agenda popped %v, queue %v", trial, step, ev != nil, ok)
				}
				if !ok {
					continue
				}
				pops++
				got := mirrored{ev.kind, ev.server, ev.id}
				switch ev.kind {
				case evService:
					if ev.copies != len(copies[ev.server]) {
						t.Fatalf("trial %d step %d: %d copies popped, %d launched", trial, step, ev.copies, len(copies[ev.server]))
					}
					for _, h := range copies[ev.server] {
						q.cancel(h)
					}
					copies[ev.server] = nil
				case evFailure:
					got.id = 0
				case evDeliver:
					got.server, got.id = ev.tasks, 0
				case evTick:
					got.server, got.id = 0, 0
					tickSet = false
				}
				if got != want || a.now != q.now {
					t.Fatalf("trial %d step %d: agenda popped %+v at %v, queue %+v at %v", trial, step, got, a.now, want, q.now)
				}
			}
		}
		if a.events != uint64(pops) {
			t.Fatalf("trial %d: agenda counted %d events, %d popped", trial, a.events, pops)
		}
	}
}

// TestAgendaRefusesThePast: a negative draw, which only a broken law
// makes, panics instead of running the clock backwards.
func TestAgendaRefusesThePast(t *testing.T) {
	for name, schedule := range map[string]func(a *agenda){
		"service": func(a *agenda) { a.startService(0, true); a.serviceCopy(0, -1) },
		"failure": func(a *agenda) { a.failAt(0, -1) },
		"group":   func(a *agenda) { a.deliverAt(event{w: -1}) },
	} {
		var a agenda
		a.reset(1)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a negative delay was scheduled", name)
				}
			}()
			schedule(&a)
		}()
	}
}

// TestCancel: a cancelled task in service never pops, cancelling it again
// is a no-op, and the server's next task pops as scheduled.
func TestCancel(t *testing.T) {
	var a agenda
	a.reset(2)
	a.startService(0, true)
	a.serviceCopy(0, 1)
	a.serviceCopy(0, 2)
	a.cancelService(0)
	a.cancelService(0)
	a.cancelService(1) // nothing in service there
	if ev := a.next(); ev != nil || a.inService(0) != 0 {
		t.Fatalf("cancelled service popped: %+v", ev)
	}
	a.startService(0, false)
	a.serviceCopy(0, 2)
	if ev := a.next(); ev == nil || ev.kind != evService || ev.server != 0 || a.now != 2 {
		t.Fatalf("next task after a cancel: %+v at %g", ev, a.now)
	}
}

// TestCancelMiddleOfHeap: cancelling the service due between a failure
// and a delivery leaves the other two to pop in time order.
func TestCancelMiddleOfHeap(t *testing.T) {
	var a agenda
	a.reset(2)
	a.failAt(1, 1)
	a.startService(0, true)
	a.serviceCopy(0, 2)
	a.deliverAt(event{server: 1, w: 3})
	a.cancelService(0)
	var got []evKind
	for ev := a.next(); ev != nil; ev = a.next() {
		got = append(got, ev.kind)
	}
	if len(got) != 2 || got[0] != evFailure || got[1] != evDeliver || a.now != 3 {
		t.Fatalf("after cancel: %v, clock %g", got, a.now)
	}
}
