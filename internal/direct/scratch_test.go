package direct

import (
	"fmt"
	"testing"

	"dtr/dist"
	"dtr/internal/core"
)

// TestWarmEvaluationAllocatesNothing: once the spectra and transfer laws
// a policy needs are cached, an evaluation works entirely in pooled
// scratch — a two-server Pair built per call included. The seed kernel
// spent 20 allocations and 318 KB per point; at factor 2 the tail-excess
// estimate once built a min-of-k law per point. The three-server points
// fold a running maximum over more than two laws.
func TestWarmEvaluationAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	m := model2(dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1), 0, 0, 1)
	s, err := NewSolver(m, Config{N: 1 << 11, Horizon: 200, MaxQueue: [2]int{24, 24}, MaxFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	// One group into each of servers 1 and 2: the exact three-server case.
	initial, p := []int{10, 6, 2}, core.NewPolicy(3)
	p[0][1], p[0][2] = 3, 4
	reliable := newSolver(t, fleet([]float64{3, 2, 1}, nil, 1.2), 24, 1<<11, 150)
	failing := newSolver(t, fleet([]float64{3, 2, 1}, []float64{60, 50, 40}, 1.2), 24, 1<<11, 150)

	evals := map[string]func(){
		"MeanTime": func() { _, err = s.MeanTime(16, 8, 5, 2) },
		"QoS":      func() { _, err = s.QoS(16, 8, 5, 2, 40) },
		"three-server mean": func() {
			_, err = reliable.Eval(Point{Initial: initial, Policy: p}, MetricMean, 0)
		},
	}
	for _, fac := range [][]int{{2, 1}, {2, 2}} {
		for _, metric := range []Metric{MetricMean, MetricQoS, MetricReliability} {
			evals[fmt.Sprintf("Pair factors %v metric %d", fac, metric)] = func() {
				_, err = s.Eval(Pair(16, 8, 5, 2, fac), metric, 40)
			}
		}
	}
	for _, metric := range []Metric{MetricQoS, MetricReliability} {
		evals[fmt.Sprintf("three-server failure-prone metric %d", metric)] = func() {
			_, err = failing.Eval(Point{Initial: initial, Policy: p}, metric, 40)
		}
	}
	for name, eval := range evals {
		eval() // fill the caches
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The pool may be emptied by a collection mid-run; the average
		// still rounds to zero.
		if allocs := testing.AllocsPerRun(200, eval); allocs > 0 {
			t.Errorf("warm %s allocates %v objects per call, want 0", name, allocs)
		}
	}
}

// TestScratchReuseIsInvisible: evaluating A, then B, then A again on
// one goroutine reuses one scratch; A must come out bit-identical, for
// every metric and for a policy that reads the prefix tables directly.
func TestScratchReuseIsInvisible(t *testing.T) {
	m := model2(dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1), 60, 45, 1)
	s := newSolver(t, m, 24, 1<<11, 200)
	all := func(l12, l21 int) Metrics {
		t.Helper()
		got, err := s.metrics(Pair(16, 8, l12, l21, nil), 40)
		if err != nil {
			t.Fatal(err)
		}
		got.Mean = 0 // NaN with failure-prone servers
		return got
	}
	for _, a := range [][2]int{{5, 2}, {0, 0}, {16, 0}} {
		first := all(a[0], a[1])
		all(11, 7) // B: overwrites the scratch
		if again := all(a[0], a[1]); again != first {
			t.Fatalf("policy %v: %+v after another evaluation, %+v before", a, again, first)
		}
	}

	// The same through the mean path.
	rel := newSolver(t, model2(dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1), 0, 0, 1), 24, 1<<11, 200)
	mean := func(l12, l21 int) float64 {
		t.Helper()
		v, err := rel.MeanTime(16, 8, l12, l21)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	first := mean(5, 2)
	mean(11, 7)
	if again := mean(5, 2); again != first {
		t.Fatalf("mean %v after another evaluation, %v before", again, first)
	}
}
