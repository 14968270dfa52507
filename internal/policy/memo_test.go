package policy

import (
	"reflect"
	"sync"
	"testing"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/direct"
	"dtr/internal/obs"
)

// memoTables builds fresh tables with factor chains up to 2.
func memoTables(t *testing.T, m *core.Model) *direct.Tables {
	t.Helper()
	tb, err := direct.NewTables(m, direct.Config{N: 1 << 11, Horizon: 160, MaxQueue: [2]int{24, 24}, MaxFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// sweepsRun runs f with a fresh registry installed and returns how many
// sweeps it ran (dtr_policy_sweeps_total).
func sweepsRun(f func()) uint64 {
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)
	f()
	return reg.Snapshot().Counters["dtr_policy_sweeps_total"]
}

// TestSweepMemoHitMatchesFreshTables: a sweep read back from the tables
// returns the Result2, SweepDiagnostics (or ReplDiagnostics) and view
// Diagnostics of the same sweep on fresh tables, for every objective,
// plain and replicated, coarse and exhaustive — and runs no sweep.
func TestSweepMemoHitMatchesFreshTables(t *testing.T) {
	reliable := model2(dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1), 0, 0, 1)
	fragile := model2(dist.NewExponential(2), dist.NewExponential(1), 1000, 30, 0.5)
	type outcome struct {
		Res   ReplResult2
		Sweep SweepDiagnostics
		Repl  ReplDiagnostics
		Diag  direct.Diagnostics
	}
	for _, c := range []struct {
		obj      Objective
		m        *core.Model
		deadline float64
	}{{ObjMeanTime, reliable, 0}, {ObjQoS, fragile, 12}, {ObjReliability, fragile, 0}} {
		for _, replicated := range []bool{false, true} {
			for _, exhaustive := range []bool{false, true} {
				maxFac := 1
				if replicated {
					maxFac = 2
				}
				run := func(tb *direct.Tables) (o outcome) {
					t.Helper()
					v, _ := tb.View(maxFac, nil)
					opt := Options2{Deadline: c.deadline, Exhaustive: exhaustive}
					var err error
					if replicated {
						o.Res, err = OptimizeRepl2(v, 16, 8, c.obj, ReplOptions2{Options2: opt, MaxFactor: 2, Diag: &o.Repl})
					} else {
						opt.Diag = &o.Sweep
						o.Res.Result2, err = Optimize2(v, 16, 8, c.obj, opt)
					}
					if err != nil {
						t.Fatal(err)
					}
					o.Diag = v.Diagnostics()
					return o
				}
				want := run(memoTables(t, c.m))
				shared := memoTables(t, c.m)
				run(shared)
				var got outcome
				if n := sweepsRun(func() { got = run(shared) }); n != 0 {
					t.Errorf("%v replicated=%v exhaustive=%v: the repeat ran %d sweeps, want all read back", c.obj, replicated, exhaustive, n)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v replicated=%v exhaustive=%v: read back\n%+v\nfresh tables\n%+v", c.obj, replicated, exhaustive, got, want)
				}
			}
		}
	}
}

// TestSweepMemoDeadlineKeysQoSOnly: mean and reliability sweeps never
// read the deadline, so two that differ only in it share one entry; qos
// sweeps at two deadlines are two sweeps.
func TestSweepMemoDeadlineKeysQoSOnly(t *testing.T) {
	reliable := model2(dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1), 0, 0, 1)
	fragile := model2(dist.NewExponential(2), dist.NewExponential(1), 1000, 30, 0.5)
	for _, c := range []struct {
		obj    Objective
		m      *core.Model
		sweeps uint64
	}{{ObjMeanTime, reliable, 0}, {ObjReliability, fragile, 0}, {ObjQoS, fragile, 1}} {
		tb := memoTables(t, c.m)
		sweep := func(deadline float64) Result2 {
			t.Helper()
			v, _ := tb.View(0, nil)
			res, err := Optimize2(v, 16, 8, c.obj, Options2{Deadline: deadline})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		first := sweep(10)
		var second Result2
		if n := sweepsRun(func() { second = sweep(25) }); n != c.sweeps {
			t.Errorf("%v: a sweep at another deadline ran %d sweeps, want %d", c.obj, n, c.sweeps)
		}
		if c.sweeps == 0 && second != first {
			t.Errorf("%v: the shared entry answered %+v, the first sweep %+v", c.obj, second, first)
		}
	}
}

// TestSweepMemoConcurrentOptimize2: goroutines running one Optimize2 on
// views of one Tables all return the result and diagnostics of a sweep
// on fresh tables (run with -race).
func TestSweepMemoConcurrentOptimize2(t *testing.T) {
	m := model2(dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1), 0, 0, 1)
	sweep := func(tb *direct.Tables) (Result2, direct.Diagnostics, error) {
		v, _ := tb.View(0, nil)
		res, err := Optimize2(v, 16, 8, ObjMeanTime, Options2{Workers: 2})
		return res, v.Diagnostics(), err
	}
	want, wantDiag, err := sweep(memoTables(t, m))
	if err != nil {
		t.Fatal(err)
	}
	shared := memoTables(t, m)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, diag, err := sweep(shared)
			if err != nil || got != want || diag != wantDiag {
				t.Errorf("concurrent sweep: %+v %+v %v\nwant %+v %+v", got, diag, err, want, wantDiag)
			}
		}()
	}
	wg.Wait()
}
