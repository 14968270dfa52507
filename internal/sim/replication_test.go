package sim

import (
	"bytes"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/direct"
	"dtr/internal/rngutil"
	"dtr/internal/trace"
)

// completionSamples runs reps independent realizations and returns the
// sorted completion times (the model must be reliable so every run
// completes).
func completionSamples(t *testing.T, m *core.Model, initial []int, p core.Policy, reps int, seed uint64) []float64 {
	t.Helper()
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		st, err := core.NewState(m, initial, p)
		if err != nil {
			t.Fatal(err)
		}
		o := Run(m, st, rngutil.Stream(seed, i))
		if !o.Completed {
			t.Fatalf("reliable model failed to complete (rep %d)", i)
		}
		times = append(times, o.Time)
	}
	sort.Float64s(times)
	return times
}

// ksDistance returns sup_t |F_emp(t) − F(t)| evaluated at the sample
// points (where the empirical CDF attains its extremes).
func ksDistance(sorted []float64, cdf func(float64) float64) float64 {
	n := float64(len(sorted))
	worst := 0.0
	for i, x := range sorted {
		f := cdf(x)
		lo := f - float64(i)/n
		hi := float64(i+1)/n - f
		if lo > worst {
			worst = lo
		}
		if hi > worst {
			worst = hi
		}
	}
	return worst
}

// latticeCDF turns a direct-solver completion lattice into a step
// function F(t) for the KS comparison.
func latticeCDF(vals []float64, dx float64) func(float64) float64 {
	return func(t float64) float64 {
		if t <= 0 {
			return 0
		}
		j := int(t / dx)
		if j >= len(vals) {
			j = len(vals) - 1
		}
		return vals[j]
	}
}

// TestReplicationKSCrossValidation is the tentpole cross-check: the
// analytic min-of-k completion-time distribution (order-statistic
// convolution in internal/direct) must match the empirical CDF of the
// simulator, which realizes replication the hard way — k concurrent
// service-copy events with cancel-on-first-complete. The two
// implementations share no code path for replication, so agreement
// within KS tolerance validates both. Factors k ∈ {1, 2, 3} on a
// §III-B-style testbed model, plus a straggler-slowdown service law.
func TestReplicationKSCrossValidation(t *testing.T) {
	cases := []struct {
		name string
		w1   dist.Dist
		w2   dist.Dist
	}{
		{"pareto-uniform", dist.NewPareto(2.5, 2), dist.NewUniform(0.5, 1.5)},
		{"slowdown", dist.NewSlowdown(dist.NewExponential(1.2), 0.25, 6), dist.NewExponential(1)},
	}
	const (
		reps = 3000
		m1   = 7
		m2   = 4
		l12  = 2
		l21  = 1
	)
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			m := model2(tc.w1, tc.w2, 0, 0, 1)
			ds, err := direct.NewSolver(m, direct.Config{
				N: 1 << 13, Horizon: 160, MaxQueue: [2]int{m1 + l21, m2 + l12}, MaxFactor: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k <= 3; k++ {
				vals, err := ds.CDF(direct.Pair(m1, m2, l12, l21, []int{k, k}))
				if err != nil {
					t.Fatal(err)
				}
				cdf := latticeCDF(vals, ds.Dx())
				repl := m.WithRepl([]int{k, k})
				times := completionSamples(t, repl, []int{m1, m2}, core.Policy2(l12, l21), reps, uint64(100+k))
				d := ksDistance(times, cdf)
				// KS critical value at alpha = 0.001 for n = 3000 is
				// 1.95/sqrt(n) ≈ 0.036; the analytic curve adds O(dx)
				// discretization error on top.
				if d > 0.04 {
					t.Errorf("k=%d: KS distance %.4f exceeds tolerance 0.04", k, d)
				}
				// Replication must shift completion stochastically earlier:
				// compare empirical medians across k.
				if k > 1 {
					base := completionSamples(t, m, []int{m1, m2}, core.Policy2(l12, l21), 500, 7)
					if times[len(times)/2] >= base[len(base)/2] {
						t.Errorf("k=%d median %.3f not below k=1 median %.3f",
							k, times[len(times)/2], base[len(base)/2])
					}
				}
			}
		})
	}
}

// TestReplicationFactorOneByteIdentical is the regression lock: a model
// with an explicit all-ones replication vector must consume the exact
// same randomness stream and produce bit-identical outcomes AND trace
// bytes as the same model without one. This pins the k = 1 fast path
// (no wrapper laws, single service event, unchanged trace emission).
func TestReplicationFactorOneByteIdentical(t *testing.T) {
	m := traceModel(false)
	repl := m.WithRepl([]int{1, 1})
	initial := []int{12, 6}
	pol := core.Policy2(3, 1)

	runTraced := func(mm *core.Model, seed uint64) (Outcome, []byte) {
		var buf bytes.Buffer
		tw := trace.NewWriter(&buf)
		if err := tw.Meta(2, "sim"); err != nil {
			t.Fatal(err)
		}
		st, err := core.NewState(mm, initial, pol)
		if err != nil {
			t.Fatal(err)
		}
		o := RunTraced(mm, st, rngutil.Stream(seed, 0), nil, tw, 0)
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		return o, buf.Bytes()
	}

	for seed := uint64(1); seed <= 20; seed++ {
		oa, ta := runTraced(m, seed)
		ob, tb := runTraced(repl, seed)
		if !reflect.DeepEqual(oa, ob) {
			t.Fatalf("seed %d: outcomes diverged:\n got %+v\nwant %+v", seed, ob, oa)
		}
		if !bytes.Equal(ta, tb) {
			t.Fatalf("seed %d: trace bytes diverged", seed)
		}
		if ob.CopiesCancelled != 0 {
			t.Fatalf("seed %d: k=1 cancelled %d copies", seed, ob.CopiesCancelled)
		}
	}

	// Same lock one level up: Estimate results are equal too.
	ea, err := Estimate(m, initial, pol, Options{Reps: 300, Seed: 5, Deadline: 30})
	if err != nil {
		t.Fatal(err)
	}
	eb, err := Estimate(repl, initial, pol, Options{Reps: 300, Seed: 5, Deadline: 30})
	if err != nil {
		t.Fatal(err)
	}
	if ea != eb {
		t.Fatalf("Estimate diverged under all-ones Repl:\n got %+v\nwant %+v", eb, ea)
	}
}

// TestReplicatedEstimateDeterministicAcrossWorkers extends the
// determinism guard to replication-enabled runs: per-replication
// rngutil.Stream seeding makes the estimates bit-identical across
// worker counts and GOMAXPROCS settings.
func TestReplicatedEstimateDeterministicAcrossWorkers(t *testing.T) {
	m := model2(dist.NewSlowdown(dist.NewExponential(1.5), 0.2, 8), dist.NewExponential(1), 50, 30, 1)
	repl := m.WithRepl([]int{3, 2})
	initial := []int{15, 8}
	pol := core.Policy2(4, 1)
	opt := Options{Reps: 400, Seed: 42, Deadline: 40}

	run := func(workers int) Estimates {
		t.Helper()
		o := opt
		o.Workers = workers
		est, err := Estimate(repl, initial, pol, o)
		if err != nil {
			t.Fatal(err)
		}
		return est
	}

	base := run(1)
	for _, workers := range []int{2, 8} {
		if got := run(workers); got != base {
			t.Fatalf("Workers=%d diverged:\n got %+v\nwant %+v", workers, got, base)
		}
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	if got := run(0); got != base {
		t.Fatalf("GOMAXPROCS=1 default pool diverged:\n got %+v\nwant %+v", got, base)
	}
}

// TestReplicationCancelsCopies checks the cancel accounting: with k = 2
// on both servers every served task cancels exactly one losing sibling,
// and busy time counts only the winning copy's service span.
func TestReplicationCancelsCopies(t *testing.T) {
	m := model2(dist.NewExponential(2), dist.NewExponential(1), 0, 0, 1)
	repl := m.WithRepl([]int{2, 2})
	st, err := core.NewState(repl, []int{6, 4}, core.Policy2(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	o := Run(repl, st, rngutil.Stream(11, 0))
	if !o.Completed {
		t.Fatalf("reliable model must complete: %+v", o)
	}
	served := o.Served[0] + o.Served[1]
	if served != 10 {
		t.Fatalf("served %d of 10 tasks", served)
	}
	if o.CopiesCancelled != served {
		t.Fatalf("k=2 must cancel one copy per served task: served %d, cancelled %d",
			served, o.CopiesCancelled)
	}
	if o.BusyTime[0] <= 0 || o.BusyTime[1] <= 0 {
		t.Fatalf("busy time not accounted: %+v", o.BusyTime)
	}
	// Min-of-2 exponential halves the mean: the run should be decisively
	// faster than the no-replication run on the same stream.
	stBase, err := core.NewState(m, []int{6, 4}, core.Policy2(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	var sumRepl, sumBase float64
	for i := 0; i < 200; i++ {
		sr, _ := core.NewState(repl, []int{6, 4}, core.Policy2(0, 0))
		sb := stBase.Clone()
		sumRepl += Run(repl, sr, rngutil.Stream(77, i)).Time
		sumBase += Run(m, sb, rngutil.Stream(78, i)).Time
	}
	if !(sumRepl < sumBase) {
		t.Fatalf("replication did not speed the workload: repl %.2f vs base %.2f", sumRepl, sumBase)
	}
}
