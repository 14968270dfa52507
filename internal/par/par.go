// Package par is the repository's deterministic fan-out helper: a
// fixed-size worker pool over an index range, built for the policy-search
// and experiment sweeps whose results must be bit-identical however the
// work is scheduled.
//
// The contract every caller relies on:
//
//   - fn(w, i) runs exactly once for every index i, whatever errors other
//     indices hit — so instrumentation counters (evaluations, cache
//     hits) do not depend on scheduling;
//   - results are written by index into caller-owned slots, never
//     reduced inside the pool — order-sensitive reductions (tie-breaking
//     an argmin the way a serial scan would) happen in the caller, over
//     the completed index order;
//   - the returned error is the one produced by the smallest failing
//     index, so even failures are scheduling-independent.
//
// It also hosts the shared -workers CLI flag of cmd/dtrlab and
// cmd/dtrplan (BindFlag), keeping the flag's name, default and
// validation identical in both binaries.
package par

import (
	"flag"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Workers resolves a worker-count option: values ≤ 0 select
// runtime.GOMAXPROCS(0), the CLI and API default.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach runs fn(w, i) for every i in [0, n) on up to `workers`
// goroutines (≤ 0 selects GOMAXPROCS); w identifies the worker (0 ≤ w <
// effective workers) for per-worker instrumentation. Every index is
// attempted even after a failure, and the error returned is the smallest
// failing index's — both deliberate, so side effects and the outcome are
// independent of scheduling. With one effective worker everything runs
// inline on the calling goroutine.
func ForEach(workers, n int, fn func(w, i int) error) error {
	return ForEachTimed(workers, n, fn, nil)
}

// ForEachTimed is ForEach that also adds to busy[w] how long worker w
// spent on its whole share of the items, reading the clock twice per
// worker however many items it takes. busy needs a slot for every worker
// ForEach can start, Workers(workers) of them; nil keeps no time.
func ForEachTimed(workers, n int, fn func(w, i int) error, busy []time.Duration) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		slot := slotOf(busy, 0)
		t0 := time.Now()
		var firstErr error
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		stop(slot, t0)
		return firstErr
	}

	// Workers claim indices from one counter, so no item waits for the
	// caller to hand it over and short items keep every worker busy.
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// One slot pointer, and n read as len(errs), keep the closure
		// small: a sweep starts its workers once per batch.
		slot := slotOf(busy, w)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			for i := int(next.Add(1) - 1); i < len(errs); i = int(next.Add(1) - 1) {
				errs[i] = fn(w, i)
			}
			stop(slot, t0)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// slotOf returns worker w's slot of busy, nil where no time is kept.
func slotOf(busy []time.Duration, w int) *time.Duration {
	if busy == nil {
		return nil
	}
	return &busy[w]
}

// stop adds the time since t0 to slot, if kept.
func stop(slot *time.Duration, t0 time.Time) {
	if slot != nil {
		*slot += time.Since(t0)
	}
}

// Flag is the shared -workers value of the CLIs; bind it with BindFlag
// and check Validate after parsing.
type Flag struct {
	N int
}

// BindFlag registers the shared -workers flag on fs. The zero default
// means "one worker per logical CPU" (GOMAXPROCS).
func BindFlag(fs *flag.FlagSet) *Flag {
	f := &Flag{}
	fs.IntVar(&f.N, "workers", 0,
		"worker goroutines for parallel policy sweeps, pair solves and simulations (0 = GOMAXPROCS)")
	return f
}

// Validate rejects negative worker counts. Callers treat a failure as a
// usage error (print usage, exit 2).
func (f *Flag) Validate() error {
	if f.N < 0 {
		return fmt.Errorf("-workers must be ≥ 0 (0 = GOMAXPROCS), got %d", f.N)
	}
	return nil
}
