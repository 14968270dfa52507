package des

import (
	"cmp"
	"math"
	"slices"
	"testing"
)

// drain pops every pending event, handing each to run (which may
// schedule more), and returns the events in the order they ran.
func drain[E any](q *Queue[E], run func(E)) []E {
	var got []E
	for {
		ev, ok := q.Next(math.Inf(1))
		if !ok {
			return got
		}
		got = append(got, ev)
		if run != nil {
			run(ev)
		}
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	var q Queue[int]
	q.Schedule(3, 3)
	q.Schedule(1, 1)
	q.Schedule(2, 2)
	if got := drain(&q, nil); !slices.Equal(got, []int{1, 2, 3}) {
		t.Fatalf("order: %v", got)
	}
	if q.Now() != 3 {
		t.Fatalf("clock: %g", q.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var q Queue[string]
	q.Schedule(1, "a")
	q.Schedule(1, "b")
	q.Schedule(1, "c")
	if got := drain(&q, nil); !slices.Equal(got, []string{"a", "b", "c"}) {
		t.Fatalf("tie order: %v", got)
	}
}

func TestScheduleFromWithinEvent(t *testing.T) {
	var q Queue[string]
	q.Schedule(1, "first")
	got := drain(&q, func(ev string) {
		if ev == "first" {
			q.Schedule(q.Now()+1, "chained")
		}
	})
	if !slices.Equal(got, []string{"first", "chained"}) || q.Now() != 2 {
		t.Fatalf("chained event: ran %v now=%g", got, q.Now())
	}
}

func TestCancel(t *testing.T) {
	var q Queue[int]
	h := q.Schedule(1, 1)
	q.Cancel(h)
	q.Cancel(h)        // double-cancel is a no-op
	q.Cancel(Handle{}) // so is the zero handle
	if got := drain(&q, nil); len(got) != 0 {
		t.Fatalf("cancelled event ran: %v", got)
	}
	if q.Len() != 0 {
		t.Fatal("queue not drained")
	}
	// A stale handle does not cancel the event that reuses its slot.
	q.Schedule(2, 2)
	q.Cancel(h)
	if got := drain(&q, nil); !slices.Equal(got, []int{2}) {
		t.Fatalf("stale handle cancelled a later event: ran %v", got)
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	var q Queue[int]
	q.Schedule(1, 1)
	h := q.Schedule(2, 2)
	q.Schedule(3, 3)
	q.Cancel(h)
	if got := drain(&q, nil); !slices.Equal(got, []int{1, 3}) {
		t.Fatalf("after cancel: %v", got)
	}
}

// TestHeapOrderUnderChurn: interleaved schedules, cancels and pops over
// many equal times always run the survivors in (time, seq) order.
func TestHeapOrderUnderChurn(t *testing.T) {
	type ev struct {
		time float64
		seq  int
	}
	var q Queue[ev]
	var handles []Handle
	var want []ev
	seq := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			e := ev{time: q.Now() + float64((round*7+i*5)%4), seq: seq}
			seq++
			handles = append(handles, q.Schedule(e.time, e))
			want = append(want, e)
		}
		victim := (round * 3) % len(handles)
		q.Cancel(handles[victim])
		want = slices.DeleteFunc(want, func(e ev) bool { return e.seq == victim })
		for i := 0; i < 3; i++ {
			got, ok := q.Next(math.Inf(1))
			if !ok {
				break
			}
			slices.SortStableFunc(want, func(a, b ev) int { return cmp.Compare(a.time, b.time) })
			if got != want[0] {
				t.Fatalf("round %d: ran %+v, earliest pending is %+v", round, got, want[0])
			}
			want = want[1:]
		}
	}
	if q.Len() != len(want) {
		t.Fatalf("%d events pending, want %d", q.Len(), len(want))
	}
}

func TestRunBounded(t *testing.T) {
	var q Queue[int]
	for i := 1; i <= 5; i++ {
		q.Schedule(float64(i), i)
	}
	count := 0
	for {
		if _, ok := q.Next(2.5); !ok {
			break
		}
		count++
	}
	if count != 2 {
		t.Fatalf("ran %d events before 2.5", count)
	}
	if q.Len() != 3 {
		t.Fatalf("%d events pending", q.Len())
	}
	if q.Now() != 2.5 {
		t.Fatalf("clock should advance to tmax, got %g", q.Now())
	}
}

func TestSchedulingPastPanics(t *testing.T) {
	var q Queue[int]
	q.Schedule(5, 0)
	q.Next(math.Inf(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on past scheduling")
		}
	}()
	q.Schedule(1, 0)
}
