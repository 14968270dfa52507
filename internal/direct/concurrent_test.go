package direct

import (
	"sync"
	"testing"

	"dtr/dist"
	"dtr/internal/obs"
)

// TestSolverConcurrentMatchesSerial: views of one Tables used by many
// goroutines — several views, each shared by two goroutines — must
// return bit-identical metric values to a serial scan over the same
// policies: the locked lazy caches (FFT prefixes, transfer laws) may
// race on who computes an entry, but never on what the entry is.
func TestSolverConcurrentMatchesSerial(t *testing.T) {
	m := model2(dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1), 0, 0, 1)
	const maxQ, gridN, horizon = 24, 1 << 11, 200
	const m1, m2 = 16, 8

	type point struct{ l12, l21 int }
	var pts []point
	for l12 := 0; l12 <= m1; l12++ {
		for l21 := 0; l21 <= m2; l21++ {
			pts = append(pts, point{l12, l21})
		}
	}

	// Serial baseline on a fresh solver: every cache entry computed once,
	// in scan order.
	serial := newSolver(t, m, maxQ, gridN, horizon)
	want := make([]float64, len(pts))
	for i, p := range pts {
		v, err := serial.MeanTime(m1, m2, p.l12, p.l21)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}

	// Concurrent scan on another fresh solver, instrumented: cold caches
	// under maximal contention.
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)
	tables, err := NewTables(m, Config{N: gridN, Horizon: horizon, MaxQueue: [2]int{maxQ, maxQ}})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(pts))
	errs := make([]error, len(pts))
	const workers = 8
	views := make([]*Solver, workers/2)
	for i := range views {
		views[i], _ = tables.View(0, nil)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(view *Solver) {
			defer wg.Done()
			for i := range next {
				got[i], errs[i] = view.MeanTime(m1, m2, pts[i].l12, pts[i].l21)
			}
		}(views[w%len(views)])
	}
	for i := range pts {
		next <- i
	}
	close(next)
	wg.Wait()

	for i, p := range pts {
		if errs[i] != nil {
			t.Fatalf("(%d,%d): %v", p.l12, p.l21, errs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("(%d,%d): concurrent %v != serial %v", p.l12, p.l21, got[i], want[i])
		}
	}

	// Every evaluation was counted by exactly one view.
	var counted uint64
	for _, v := range views {
		counted += v.Diagnostics().Evaluations
	}
	if counted != uint64(len(pts)) {
		t.Fatalf("views counted %d evaluations, want %d", counted, len(pts))
	}

	// The cache metrics saw the scan; dup computes (publish races lost)
	// are possible but each one must have been discarded, not used.
	snap := reg.Snapshot()
	if snap.Counters["dtr_direct_evals_total"] != uint64(len(pts)) {
		t.Fatalf("evals counter %d, want %d", snap.Counters["dtr_direct_evals_total"], len(pts))
	}
	hits := snap.Counters["dtr_direct_transfer_cache_hits_total"]
	misses := snap.Counters["dtr_direct_transfer_cache_misses_total"]
	if misses == 0 || hits == 0 {
		t.Fatalf("transfer cache unused under the scan: hits=%d misses=%d", hits, misses)
	}
}
