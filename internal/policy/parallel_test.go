package policy

import (
	"reflect"
	"runtime"
	"testing"

	"dtr/dist"
	"dtr/internal/direct"
	"dtr/internal/obs"
)

// TestOptimize2DeterministicAcrossWorkers locks in the parallel sweep's
// contract (mirroring sim's determinism guard): every pass generates its
// candidate points in serial scan order and reduces the evaluated values
// in that same order, so the optimum, its value, the tie-breaking and the
// Evaluations count are bit-identical at every worker count — with the
// metrics registry installed (which adds per-evaluation timing on the
// worker path) and under any GOMAXPROCS — and so is the solver's fold
// audit: the screened sweep confirms the same points at every worker
// count. Every run sweeps fresh tables: on shared ones each run after
// the first would read the first back.
func TestOptimize2DeterministicAcrossWorkers(t *testing.T) {
	m := model2(dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1), 0, 0, 1)

	for _, exhaustive := range []bool{false, true} {
		type outcome struct {
			res  Result2
			diag direct.Diagnostics
		}
		run := func(workers int) outcome {
			t.Helper()
			s := solver2(t, m, 40, 1<<12, 160)
			res, err := Optimize2(s, 24, 12, ObjMeanTime, Options2{Exhaustive: exhaustive, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			return outcome{res, s.Diagnostics()}
		}

		// Baseline: uninstrumented, one worker.
		base := run(1)

		// Instrumented runs across worker counts must reproduce it exactly.
		reg := obs.NewRegistry()
		obs.SetDefault(reg)
		for _, workers := range []int{1, 2, 8} {
			if got := run(workers); got != base {
				t.Fatalf("exhaustive=%v workers=%d diverged:\n got %+v\nwant %+v",
					exhaustive, workers, got, base)
			}
		}
		obs.SetDefault(nil)

		// GOMAXPROCS governs the default pool size; vary it with Workers
		// left at the default — still bit-identical.
		old := runtime.GOMAXPROCS(1)
		got := run(0)
		runtime.GOMAXPROCS(old)
		if got != base {
			t.Fatalf("exhaustive=%v GOMAXPROCS=1 default pool diverged:\n got %+v\nwant %+v",
				exhaustive, got, base)
		}
		if got := run(0); got != base {
			t.Fatalf("exhaustive=%v GOMAXPROCS=%d default pool diverged:\n got %+v\nwant %+v",
				exhaustive, old, got, base)
		}

		// And the instrumentation recorded the sharded work.
		snap := reg.Snapshot()
		if n := snap.Counters["dtr_policy_sweep_evaluations_total"]; n == 0 {
			t.Fatal("instrumented sweeps left dtr_policy_sweep_evaluations_total at zero")
		}
		if n := snap.Counters["dtr_policy_sweep_batches_total"]; n == 0 {
			t.Fatal("instrumented sweeps left dtr_policy_sweep_batches_total at zero")
		}
		if g := snap.Gauges[`dtr_policy_worker_busy_seconds{worker="0"}`]; g <= 0 {
			t.Fatal("worker 0 recorded no busy time")
		}
	}
}

// TestSweepInstrumentationAllocsFlat: what the metrics registry adds to an
// exhaustive sweep's allocations is per worker (its busy-time gauge
// handle), never per lattice point. Resolving the handle by name on
// every point cost eight allocations each.
func TestSweepInstrumentationAllocsFlat(t *testing.T) {
	eval := func(l12, l21 int) (float64, error) { return float64(l12*7%11 + l21), nil }
	allocs := func(m, workers int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := optimize2(eval, nil, m, m, ObjMeanTime, Options2{Exhaustive: true, Workers: workers}); err != nil {
				t.Fatal(err)
			}
		})
	}
	defer obs.SetDefault(nil)
	for _, workers := range []int{1, 2} {
		for _, m := range []int{10, 60} {
			obs.SetDefault(nil)
			plain := allocs(m, workers)
			obs.SetDefault(obs.NewRegistry())
			extra := allocs(m, workers) - plain
			// A handle costs about eight; the seen map's growth moves
			// either count by a few from run to run.
			if points := (m + 1) * (m + 1); extra > float64(16*workers) {
				t.Fatalf("workers=%d, %d points: instrumentation adds %.0f allocations, want at most %d (one gauge handle per worker)",
					workers, points, extra, 16*workers)
			}
		}
	}
}

// TestAlgorithm1DeterministicAcrossWorkers: the per-server refinement
// rows are independent, so the produced policy must be identical however
// the rows are scheduled across the pool — again with instrumentation on
// and GOMAXPROCS varied.
func TestAlgorithm1DeterministicAcrossWorkers(t *testing.T) {
	m := fiveServer(dist.FamilyPareto1, 1, true)
	queues := []int{80, 50, 30, 25, 15}

	run := func(workers int) [][]int {
		t.Helper()
		p, err := Algorithm1(m, queues, Alg1Options{
			Objective: ObjMeanTime, K: 3, GridN: 1 << 10, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	base := run(1)

	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)
	for _, workers := range []int{1, 2, 8} {
		if got := run(workers); !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d diverged:\n got %v\nwant %v", workers, got, base)
		}
	}

	old := runtime.GOMAXPROCS(1)
	got := run(0)
	runtime.GOMAXPROCS(old)
	if !reflect.DeepEqual(got, base) {
		t.Fatalf("GOMAXPROCS=1 default pool diverged:\n got %v\nwant %v", got, base)
	}

	// The iteration and pair-solve counters aggregate per-row counts, so
	// they too are scheduling-independent; four identical runs must have
	// recorded four times the same amounts.
	snap := reg.Snapshot()
	iters := snap.Counters["dtr_policy_alg1_iterations_total"]
	solves := snap.Counters["dtr_policy_alg1_pair_solves_total"]
	if iters == 0 || solves == 0 {
		t.Fatalf("instrumented runs recorded nothing: iters=%d solves=%d", iters, solves)
	}
	if iters%4 != 0 || solves%4 != 0 {
		t.Fatalf("per-run counter totals are scheduling-dependent: iters=%d solves=%d over 4 runs", iters, solves)
	}
}
