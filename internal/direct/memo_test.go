package direct

import (
	"errors"
	"slices"
	"testing"

	"dtr/dist"
)

// meanScan is a small sweep for Solver.Sweep: the mean at every policy of
// a 7×5 lattice under the factors fac, in scan order.
func meanScan(fac [2]int) func(*Solver) (any, error) {
	return func(v *Solver) (any, error) {
		var out []float64
		for l12 := 0; l12 <= 6; l12++ {
			for l21 := 0; l21 <= 4; l21++ {
				x, err := v.Eval(Pair(6, 4, l12, l21, fac[:]), MetricMean, 0)
				if err != nil {
					return nil, err
				}
				out = append(out, x)
			}
		}
		return out, nil
	}
}

// TestSweepMemoMatchesOwnRun: a remembered sweep, missed or hit, leaves a
// view the values and Diagnostics of a view that ran the sweep itself,
// and the tables charge the entry.
func TestSweepMemoMatchesOwnRun(t *testing.T) {
	m := model2(dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1), 0, 0, 1)
	cfg := Config{N: 1 << 10, Horizon: 120, MaxQueue: [2]int{10, 10}, MaxFactor: 2}
	for _, fac := range [][2]int{{1, 1}, {2, 1}} {
		own, err := NewSolver(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := meanScan(fac)(own)
		wantDiag := own.Diagnostics()

		tables, err := NewTables(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, wantHit := range []bool{false, true} {
			v, _ := tables.View(2, nil)
			got, hit, err := v.Sweep("scan", fac, meanScan(fac))
			if err != nil || hit != wantHit {
				t.Fatalf("factors %v sweep %d: hit=%v err=%v, want hit=%v", fac, i, hit, err, wantHit)
			}
			if !slices.Equal(got.([]float64), want.([]float64)) {
				t.Fatalf("factors %v sweep %d: values differ from the view's own run", fac, i)
			}
			if d := v.Diagnostics(); d != wantDiag {
				t.Fatalf("factors %v sweep %d: diagnostics\n%+v\nown run\n%+v", fac, i, d, wantDiag)
			}
		}
		if n := len(tables.sweeps); n != 1 {
			t.Fatalf("factors %v: two identical sweeps left %d entries", fac, n)
		}
		// Both tables hold the same chains, spectra and transfer laws now;
		// the shared ones also the entry.
		if got, want := tables.Bytes(), own.t.Bytes()+sweptBytes; got != want {
			t.Fatalf("factors %v: the tables charge %d bytes, want %d", fac, got, want)
		}
	}
}

// TestSweepErrorNotRemembered: a failed sweep leaves no entry and charges
// nothing, so the next caller of its key sweeps again.
func TestSweepErrorNotRemembered(t *testing.T) {
	m := model2(dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1), 0, 0, 1)
	tables, err := NewTables(m, Config{N: 1 << 10, Horizon: 120, MaxQueue: [2]int{10, 10}})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := tables.View(0, nil)
	before, runs := tables.Bytes(), 0
	fail := func(*Solver) (any, error) { runs++; return nil, errors.New("no answer") }
	for i := 0; i < 2; i++ {
		if _, hit, err := v.Sweep("scan", [2]int{1, 1}, fail); err == nil || hit {
			t.Fatalf("sweep %d: hit=%v err=%v, want the run's error", i, hit, err)
		}
	}
	if runs != 2 || len(tables.sweeps) != 0 || tables.Bytes() != before {
		t.Fatalf("%d runs, %d entries, %d bytes charged after two failed sweeps, want 2, 0, 0", runs, len(tables.sweeps), tables.Bytes()-before)
	}
}

// TestSweepMemoFactorCheckFirst: a factor-1 view asking for a (2, 1)
// sweep errors exactly as an unremembered sweep does, even when the
// tables hold that entry for a view that may read factor 2.
func TestSweepMemoFactorCheckFirst(t *testing.T) {
	m := model2(dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1), 0, 0, 1)
	cfg := Config{N: 1 << 10, Horizon: 120, MaxQueue: [2]int{10, 10}}
	plain, err := NewSolver(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, want := meanScan([2]int{2, 1})(plain)
	if want == nil {
		t.Fatal("a factor-1 solver evaluated factor 2")
	}

	tables, err := NewTables(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wide, _ := tables.View(2, nil)
	if _, _, err := wide.Sweep("scan", [2]int{2, 1}, meanScan([2]int{2, 1})); err != nil {
		t.Fatal(err)
	}
	narrow, _ := tables.View(0, nil)
	_, hit, err := narrow.Sweep("scan", [2]int{2, 1}, meanScan([2]int{2, 1}))
	if hit || err == nil || err.Error() != want.Error() {
		t.Fatalf("factor-1 view: hit=%v err=%v, want the unremembered error %q", hit, err, want)
	}
}
