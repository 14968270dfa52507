package estimate

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"dtr/dist"
	"dtr/internal/core"
)

func model3() *core.Model {
	return &core.Model{
		Service: []dist.Dist{
			dist.NewPareto(2.5, 2),
			dist.NewPareto(2.5, 1.5),
			dist.NewPareto(2.5, 1),
		},
		Failure: []dist.Dist{dist.Never{}, dist.Never{}, dist.Never{}},
		Transfer: func(tasks, src, dst int) dist.Dist {
			return dist.NewExponential(float64(tasks))
		},
	}
}

func TestInstantPacketsTrackTruthClosely(t *testing.T) {
	e := &Exchange{Model: model3(), Period: 0.5, Seed: 1}
	snap, err := e.Take([]int{30, 20, 10}, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	// With undelayed packets every 0.5 time units, estimates lag the
	// truth by at most the queue movement within one period (a couple of
	// tasks at these service rates).
	for i := range snap.Estimates {
		for j := range snap.Estimates[i] {
			d := snap.Estimates[i][j] - snap.Queues[j]
			if d < 0 {
				d = -d
			}
			if d > 3 {
				t.Fatalf("estimate[%d][%d]=%d vs truth %d", i, j, snap.Estimates[i][j], snap.Queues[j])
			}
		}
	}
	if snap.MeanStaleness() > 1.5 {
		t.Fatalf("instant packets should be fresh, staleness %g", snap.MeanStaleness())
	}
}

func TestSelfKnowledgeIsExact(t *testing.T) {
	e := &Exchange{Model: model3(), Period: 5, Seed: 2,
		PacketDelay: func(src, dst int) dist.Dist { return dist.NewExponential(10) }}
	snap, err := e.Take([]int{30, 20, 10}, 25, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range snap.Estimates {
		if snap.Estimates[i][i] != snap.Queues[i] {
			t.Fatalf("server %d mis-knows itself: %d vs %d", i, snap.Estimates[i][i], snap.Queues[i])
		}
	}
}

func TestDelayedPacketsAreStale(t *testing.T) {
	fresh := &Exchange{Model: model3(), Period: 1, Seed: 3}
	slow := &Exchange{Model: model3(), Period: 1, Seed: 3,
		PacketDelay: func(src, dst int) dist.Dist { return dist.NewExponential(8) }}
	sFresh, err := fresh.Take([]int{40, 25, 10}, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	sSlow, err := slow.Take([]int{40, 25, 10}, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sSlow.MeanStaleness() <= sFresh.MeanStaleness() {
		t.Fatalf("delayed packets should be staler: %g vs %g",
			sSlow.MeanStaleness(), sFresh.MeanStaleness())
	}
	// Stale estimates overestimate draining queues (they remember the
	// past, when more tasks were present).
	over := 0
	for i := range sSlow.Estimates {
		for j := range sSlow.Estimates[i] {
			if i != j && sSlow.Estimates[i][j] > sSlow.Queues[j] {
				over++
			}
		}
	}
	if over == 0 {
		t.Fatal("stale estimates of draining queues should overshoot somewhere")
	}
}

func TestQueuesDrainDuringWarmup(t *testing.T) {
	e := &Exchange{Model: model3(), Period: 1, Seed: 4}
	snap, err := e.Take([]int{30, 20, 10}, 15, 0)
	if err != nil {
		t.Fatal(err)
	}
	total := snap.Queues[0] + snap.Queues[1] + snap.Queues[2]
	if total >= 60 {
		t.Fatal("nothing was served during warmup")
	}
	if total < 0 {
		t.Fatal("negative queues")
	}
	if snap.MaxAbsError() < 0 {
		t.Fatal("MaxAbsError must be non-negative")
	}
}

func TestZeroWarmupIsInitialState(t *testing.T) {
	e := &Exchange{Model: model3(), Period: 1, Seed: 5}
	snap, err := e.Take([]int{7, 3, 1}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Queues[0] != 7 || snap.Queues[1] != 3 || snap.Queues[2] != 1 {
		t.Fatalf("zero warmup should not serve: %v", snap.Queues)
	}
	if snap.MaxAbsError() != 0 {
		t.Fatal("estimates equal the truth at t=0")
	}
}

func TestTakeValidation(t *testing.T) {
	e := &Exchange{Model: model3(), Period: 0, Seed: 6}
	if _, err := e.Take([]int{1, 1, 1}, 5, 0); err == nil {
		t.Fatal("zero period should fail")
	}
	e.Period = 1
	if _, err := e.Take([]int{1, 1}, 5, 0); err == nil {
		t.Fatal("wrong allocation shape should fail")
	}
	if _, err := e.Take([]int{1, 1, 1}, -2, 0); err == nil {
		t.Fatal("negative warmup should fail")
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	e := &Exchange{Model: model3(), Period: 1, Seed: 7,
		PacketDelay: func(src, dst int) dist.Dist { return dist.NewExponential(2) }}
	a, err := e.Take([]int{20, 10, 5}, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Take([]int{20, 10, 5}, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Estimates {
		for j := range a.Estimates[i] {
			if a.Estimates[i][j] != b.Estimates[i][j] {
				t.Fatal("snapshots not reproducible under seed")
			}
		}
	}
}

// drain pops every pending event, handing each to run (which may
// schedule more), and returns the values of the events in the order they
// ran.
func drain(a *agenda, run func(event)) []int {
	var got []int
	for {
		ev, ok := a.next(math.Inf(1))
		if !ok {
			return got
		}
		got = append(got, ev.value)
		if run != nil {
			run(ev)
		}
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	var a agenda
	a.schedule(3, event{value: 3})
	a.schedule(1, event{value: 1})
	a.schedule(2, event{value: 2})
	if got := drain(&a, nil); !slices.Equal(got, []int{1, 2, 3}) {
		t.Fatalf("order: %v", got)
	}
	if a.now != 3 {
		t.Fatalf("clock: %g", a.now)
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var a agenda
	for v := 1; v <= 3; v++ {
		a.schedule(1, event{value: v})
	}
	if got := drain(&a, nil); !slices.Equal(got, []int{1, 2, 3}) {
		t.Fatalf("tie order: %v", got)
	}
}

func TestScheduleFromWithinEvent(t *testing.T) {
	var a agenda
	a.schedule(1, event{value: 1})
	got := drain(&a, func(ev event) {
		if ev.value == 1 {
			a.schedule(a.now+1, event{value: 2})
		}
	})
	if !slices.Equal(got, []int{1, 2}) || a.now != 2 {
		t.Fatalf("chained event: ran %v now=%g", got, a.now)
	}
}

// TestHeapOrderUnderChurn: interleaved schedules and pops over many equal
// times always run the pending events in (time, seq) order.
func TestHeapOrderUnderChurn(t *testing.T) {
	var a agenda
	var want []scheduled // pending, in scheduling order
	seq := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			tm := a.now + float64((round*7+i*5)%4)
			a.schedule(tm, event{value: seq})
			want = append(want, scheduled{t: tm, ev: event{value: seq}})
			seq++
		}
		for i := 0; i < 3; i++ {
			got, ok := a.next(math.Inf(1))
			if !ok {
				t.Fatalf("round %d: nothing pending", round)
			}
			slices.SortStableFunc(want, func(x, y scheduled) int { return cmp.Compare(x.t, y.t) })
			if got != want[0].ev || a.now != want[0].t {
				t.Fatalf("round %d: ran %+v at %g, earliest pending is %+v", round, got, a.now, want[0])
			}
			want = want[1:]
		}
	}
	if a.Len() != len(want) {
		t.Fatalf("%d events pending, want %d", a.Len(), len(want))
	}
}

func TestRunBounded(t *testing.T) {
	var a agenda
	for v := 1; v <= 5; v++ {
		a.schedule(float64(v), event{value: v})
	}
	count := 0
	for {
		if _, ok := a.next(2.5); !ok {
			break
		}
		count++
	}
	if count != 2 || a.now != 2 {
		t.Fatalf("ran %d events before 2.5, clock at %g", count, a.now)
	}
	if a.Len() != 3 {
		t.Fatalf("%d events pending", a.Len())
	}
}

// TestSchedulingPastPanics: an event scheduled before the clock, which
// only a broken law makes, panics instead of running the clock backwards.
func TestSchedulingPastPanics(t *testing.T) {
	var a agenda
	a.schedule(5, event{})
	a.next(math.Inf(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on past scheduling")
		}
	}()
	a.schedule(1, event{})
}
