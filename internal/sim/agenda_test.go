package sim

import (
	"math"
	"math/rand/v2"
	"testing"

	"dtr/internal/des"
)

// mirrored is what the reference des.Queue holds for an agenda event:
// its kind, the server (or group number) and, for a service copy, the
// copy index.
type mirrored struct {
	kind       evKind
	server, id int
}

// TestAgendaMatchesQueue drives the agenda and a des.Queue with the same
// random schedules — delays from a small set so times tie often, +Inf
// among them, replication factors up to 16, services cancelled as a
// failure cancels them — and requires the same pop sequence: the same
// event at the same time, a service through the same winning copy.
func TestAgendaMatchesQueue(t *testing.T) {
	delays := []float64{0, 0, 1, 1, 2, 3.5, math.Inf(1)}
	for trial := 0; trial < 300; trial++ {
		r := rand.New(rand.NewPCG(uint64(trial), 11))
		n := 1 + r.IntN(6)
		var a agenda
		a.reset(n)
		var q des.Queue[mirrored]
		copies := make([][]des.Handle, n)
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
					copies[k] = append(copies[k], q.Schedule(q.Now()+w, mirrored{evService, k, i}))
				}
			case 1:
				if failSet[k] {
					continue
				}
				failSet[k] = true
				y := delay()
				a.failAt(k, y)
				q.Schedule(q.Now()+y, mirrored{evFailure, k, 0})
			case 2:
				w := delay()
				a.deliverAt(event{server: k, tasks: groups, w: w})
				q.Schedule(q.Now()+w, mirrored{evDeliver, groups, 0})
				groups++
			case 3:
				if tickSet {
					continue
				}
				tickSet = true
				w := delay()
				a.tickAt(a.now + w)
				q.Schedule(q.Now()+w, mirrored{evTick, 0, 0})
			case 4:
				a.cancelService(k)
				for _, h := range copies[k] {
					q.Cancel(h)
				}
				copies[k] = nil
			default:
				ev := a.next()
				want, ok := q.Next(math.Inf(1))
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
						q.Cancel(h)
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
				if got != want || a.now != q.Now() {
					t.Fatalf("trial %d step %d: agenda popped %+v at %v, queue %+v at %v", trial, step, got, a.now, want, q.Now())
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
