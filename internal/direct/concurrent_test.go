package direct

import (
	"sync"
	"sync/atomic"
	"testing"

	"dtr/dist"
	"dtr/internal/obs"
)

// TestSolverConcurrentMatchesSerial: views of one Tables used by many
// goroutines — several views, each shared by two goroutines — must
// return bit-identical metric values to a serial scan over the same
// policies, and the lazy caches (spectra, transfer laws, sweeps) must
// fill each entry once however the goroutines race on it: the miss
// counters equal the distinct entries the scan reads.
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

	// Each transfer law (tasks, src, dst) and each spectrum slot (server,
	// group size) the scan reads was computed once; every other read hit.
	transfers, slots := map[[3]int]bool{}, map[[2]int]bool{}
	for _, p := range pts {
		if p.l12 > 0 {
			transfers[[3]int{p.l12, 0, 1}], slots[[2]int{1, p.l12}] = true, true
		}
		if p.l21 > 0 {
			transfers[[3]int{p.l21, 1, 0}], slots[[2]int{0, p.l21}] = true, true
		}
	}
	reads := 0
	for _, p := range pts {
		reads += min(p.l12, 1) + min(p.l21, 1)
	}
	snap := reg.Snapshot()
	if snap.Counters["dtr_direct_evals_total"] != uint64(len(pts)) {
		t.Fatalf("evals counter %d, want %d", snap.Counters["dtr_direct_evals_total"], len(pts))
	}
	for _, c := range []struct {
		cache    string
		distinct int
	}{{"transfer", len(transfers)}, {"fft", len(slots)}} {
		hits := snap.Counters["dtr_direct_"+c.cache+"_cache_hits_total"]
		misses := snap.Counters["dtr_direct_"+c.cache+"_cache_misses_total"]
		if misses != uint64(c.distinct) || hits+misses != uint64(reads) {
			t.Errorf("%s cache: %d misses and %d hits, want %d misses (one per distinct entry) of %d reads", c.cache, misses, hits, c.distinct, reads)
		}
	}

	// Eight goroutines asking fresh tables for one sweep at once get one
	// computation: run executes once, seven callers wait for it and read
	// it back as hits, and all eight hold the same answer and the same
	// Diagnostics.
	tables, err = NewTables(m, Config{N: 1 << 10, Horizon: 120, MaxQueue: [2]int{10, 10}})
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int32
	scan := meanScan([2]int{1, 1})
	run := func(v *Solver) (any, error) {
		runs.Add(1)
		return scan(v)
	}
	const callers = 8
	answers := make([]any, callers)
	hits := make([]bool, callers)
	errs = make([]error, callers)
	views = make([]*Solver, callers)
	start := make(chan struct{})
	for i := range views {
		views[i], _ = tables.View(0, nil)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			answers[i], hits[i], errs[i] = views[i].Sweep("scan", [2]int{1, 1}, run)
		}(i)
	}
	close(start)
	wg.Wait()

	if n := runs.Load(); n != 1 {
		t.Fatalf("run executed %d times for one key, want once", n)
	}
	computed := 0
	for i := range views {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !hits[i] {
			computed++
		}
		if &answers[i].([]float64)[0] != &answers[0].([]float64)[0] {
			t.Fatalf("caller %d holds another copy of the answer", i)
		}
		if d, want := views[i].Diagnostics(), views[0].Diagnostics(); d != want {
			t.Fatalf("caller %d diagnostics\n%+v\nwant\n%+v", i, d, want)
		}
	}
	if computed != 1 {
		t.Fatalf("%d callers report a miss, want 1", computed)
	}
}
