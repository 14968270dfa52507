package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(7); got != 7 {
		t.Fatalf("Workers(7) = %d", got)
	}
}

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{57, 5000} { // the second: workers race for every claim
		for _, workers := range []int{0, 1, 2, 8, 100} {
			counts := make([]atomic.Int32, n)
			if err := ForEach(workers, n, func(w, i int) error {
				counts[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, c)
				}
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(4, 0, func(w, i int) error { t.Fatal("must not run"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestForEachSmallestIndexErrorWins: the returned error must be the
// smallest failing index's regardless of worker count, and every index
// must still be attempted.
func TestForEachSmallestIndexErrorWins(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var attempted atomic.Int32
		err := ForEach(workers, 20, func(w, i int) error {
			attempted.Add(1)
			if i == 17 || i == 5 || i == 11 {
				return fmt.Errorf("index %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 5 failed" {
			t.Fatalf("workers=%d: got error %v, want the smallest failing index (5)", workers, err)
		}
		if got := attempted.Load(); got != 20 {
			t.Fatalf("workers=%d: only %d/20 indices attempted after failure", workers, got)
		}
	}
}

func TestForEachWorkerIDsInRange(t *testing.T) {
	const workers, n = 4, 64
	var bad atomic.Bool
	if err := ForEach(workers, n, func(w, i int) error {
		if w < 0 || w >= workers {
			bad.Store(true)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if bad.Load() {
		t.Fatal("worker id outside [0, workers)")
	}
}

// TestForEachConcurrent verifies the pool actually overlaps work when
// more than one worker is requested: a rendezvous that needs two
// goroutines inside fn at once deadlocks under a serial pool, so getting
// past it proves concurrency.
func TestForEachConcurrent(t *testing.T) {
	gate := make(chan struct{})
	err := ForEach(2, 2, func(w, i int) error {
		select {
		case gate <- struct{}{}:
		case <-gate:
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestForEachErrorsDoNotPanicWithNilSlots(t *testing.T) {
	wantErr := errors.New("boom")
	err := ForEach(3, 5, func(w, i int) error {
		if i == 0 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("got %v, want %v", err, wantErr)
	}
}

// TestForEachTimedAddsEachShare: ForEachTimed runs every item once and
// adds to a worker's slot the time its share took, at least the time of
// the items it ran.
func TestForEachTimedAddsEachShare(t *testing.T) {
	const item = 200 * time.Microsecond
	for _, workers := range []int{1, 3} {
		busy := make([]time.Duration, workers)
		ran := make([]atomic.Int64, workers)
		err := ForEachTimed(workers, 6, func(w, i int) error {
			ran[w].Add(1)
			for t0 := time.Now(); time.Since(t0) < item; {
			}
			return nil
		}, busy)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for w := range busy {
			n := int(ran[w].Load())
			total += n
			if busy[w] < time.Duration(n)*item {
				t.Errorf("workers=%d: worker %d ran %d items in a share timed at %v", workers, w, n, busy[w])
			}
		}
		if total != 6 {
			t.Errorf("workers=%d: %d items ran, want 6", workers, total)
		}
	}
}
