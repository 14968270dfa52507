package direct

import (
	"math"
	"testing"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/markov"
	"dtr/internal/testutil"
)

// model2 builds a two-server model from service families and per-task
// transfer mean.
func model2(w1, w2 dist.Dist, fmean1, fmean2, zPerTask float64) *core.Model {
	fail := func(mean float64) dist.Dist {
		if mean <= 0 {
			return dist.Never{}
		}
		return dist.NewExponential(mean)
	}
	return &core.Model{
		Service: []dist.Dist{w1, w2},
		Failure: []dist.Dist{fail(fmean1), fail(fmean2)},
		Transfer: func(tasks, src, dst int) dist.Dist {
			return dist.NewExponential(zPerTask * float64(tasks))
		},
	}
}

func newSolver(t *testing.T, m *core.Model, maxQ int, n int, horizon float64) *Solver {
	t.Helper()
	s, err := NewSolver(m, Config{N: n, Horizon: horizon, MaxQueue: [2]int{maxQ, maxQ}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAgainstMarkovExact: on an all-exponential model the direct solver
// must reproduce the algebraic Markov-chain values.
func TestAgainstMarkovExact(t *testing.T) {
	m := model2(dist.NewExponential(2), dist.NewExponential(1), 0, 0, 1)
	s := newSolver(t, m, 12, 1<<13, 200)
	mk, err := markov.FromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range [][4]int{{6, 4, 0, 0}, {6, 4, 3, 0}, {6, 4, 2, 2}, {6, 4, 6, 0}} {
		m1, m2, l12, l21 := pol[0], pol[1], pol[2], pol[3]
		st, err := core.NewState(m, []int{m1, m2}, core.Policy2(l12, l21))
		if err != nil {
			t.Fatal(err)
		}
		wantMean, err := mk.MeanTime(st)
		if err != nil {
			t.Fatal(err)
		}
		gotMean, err := s.MeanTime(m1, m2, l12, l21)
		if err != nil {
			t.Fatal(err)
		}
		testutil.Almost(t, gotMean, wantMean, 5e-3, "mean vs markov")

		wantQ, err := mk.QoS(st, 15)
		if err != nil {
			t.Fatal(err)
		}
		gotQ, err := s.QoS(m1, m2, l12, l21, 15)
		if err != nil {
			t.Fatal(err)
		}
		testutil.Almost(t, gotQ, wantQ, 5e-3, "QoS vs markov")
	}
}

func TestReliabilityAgainstMarkov(t *testing.T) {
	m := model2(dist.NewExponential(2), dist.NewExponential(1), 40, 25, 1)
	s := newSolver(t, m, 12, 1<<13, 200)
	mk, err := markov.FromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range [][4]int{{5, 3, 0, 0}, {5, 3, 2, 1}, {5, 3, 5, 0}} {
		m1, m2, l12, l21 := pol[0], pol[1], pol[2], pol[3]
		st, _ := core.NewState(m, []int{m1, m2}, core.Policy2(l12, l21))
		want, err := mk.Reliability(st)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Reliability(m1, m2, l12, l21)
		if err != nil {
			t.Fatal(err)
		}
		testutil.Almost(t, got, want, 5e-3, "reliability vs markov")
	}
}

// TestQoSWithFailuresAgainstMarkov: the deadline metric must include the
// failure race (a server that dies before its own finish time strands
// tasks even if the clock has not run out).
func TestQoSWithFailuresAgainstMarkov(t *testing.T) {
	m := model2(dist.NewExponential(2), dist.NewExponential(1), 30, 20, 1)
	s := newSolver(t, m, 12, 1<<13, 200)
	mk, err := markov.FromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range [][4]int{{5, 3, 0, 0}, {5, 3, 2, 1}} {
		m1, m2, l12, l21 := pol[0], pol[1], pol[2], pol[3]
		st, _ := core.NewState(m, []int{m1, m2}, core.Policy2(l12, l21))
		want, err := mk.QoS(st, 12)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.QoS(m1, m2, l12, l21, 12)
		if err != nil {
			t.Fatal(err)
		}
		testutil.Almost(t, got, want, 5e-3, "QoS with failures vs markov")
	}
}

// TestAgainstCoreSolver: the age-dependent regeneration recursion and the
// convolution solver must agree on a genuinely non-Markovian scenario —
// the central internal consistency check of the reproduction.
func TestAgainstCoreSolver(t *testing.T) {
	m := model2(dist.NewPareto(2.5, 1), dist.NewUniform(0.4, 1.2), 0, 0, 0.8)
	s := newSolver(t, m, 6, 1<<12, 60)

	sv, err := core.NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	sv.Step = 0.02
	sv.Horizon = 60

	st, _ := core.NewState(m, []int{3, 2}, core.Policy2(1, 0))
	coreMean, err := sv.MeanTime(st)
	if err != nil {
		t.Fatal(err)
	}
	directMean, err := s.MeanTime(3, 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, directMean, coreMean, 0.02, "mean: direct vs core")

	coreQ, err := sv.QoS(st, 5)
	if err != nil {
		t.Fatal(err)
	}
	directQ, err := s.QoS(3, 2, 1, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, directQ, coreQ, 0.03, "QoS: direct vs core")
}

func TestReliabilityAgainstCoreSolverNonMarkovian(t *testing.T) {
	m := model2(dist.NewPareto(2.5, 1), dist.NewExponential(1), 15, 10, 0.7)
	s := newSolver(t, m, 6, 1<<12, 80)
	sv, err := core.NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	sv.Step = 0.025
	sv.Horizon = 80
	st, _ := core.NewState(m, []int{2, 1}, core.Policy2(1, 0))
	want, err := sv.Reliability(st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Reliability(2, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, got, want, 0.02, "reliability: direct vs core")
}

func TestDegenerateWorkloads(t *testing.T) {
	m := model2(dist.NewExponential(1), dist.NewExponential(1), 0, 0, 1)
	s := newSolver(t, m, 4, 1<<11, 50)
	mean, err := s.MeanTime(0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, mean, 0, 1e-12, "empty workload mean")
	q, err := s.QoS(0, 0, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, q, 1, 1e-12, "empty workload QoS")
	r, err := s.Reliability(0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, r, 1, 1e-12, "empty workload reliability")
}

func TestInfeasiblePoliciesRejected(t *testing.T) {
	m := model2(dist.NewExponential(1), dist.NewExponential(1), 0, 0, 1)
	s := newSolver(t, m, 4, 1<<11, 50)
	if _, err := s.MeanTime(2, 2, 3, 0); err == nil {
		t.Fatal("L12 > m1 should fail")
	}
	if _, err := s.QoS(2, 2, 0, -1, 5); err == nil {
		t.Fatal("negative L21 should fail")
	}
	if _, err := s.Reliability(99, 0, 0, 0); err == nil {
		t.Fatal("queue above MaxQueue should fail")
	}
}

func TestSymmetry(t *testing.T) {
	// Identical servers: swapping the policy direction must not change
	// the metrics.
	m := model2(dist.NewUniform(0.5, 1.5), dist.NewUniform(0.5, 1.5), 20, 20, 1)
	s := newSolver(t, m, 8, 1<<12, 60)
	a, err := s.metrics(Pair(4, 4, 2, 1, nil), 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.metrics(Pair(4, 4, 1, 2, nil), 8)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, a.QoS, b.QoS, 1e-9, "QoS symmetry")
	testutil.Almost(t, a.Reliability, b.Reliability, 1e-9, "reliability symmetry")
}

func TestMeanRequiresReliable(t *testing.T) {
	m := model2(dist.NewExponential(1), dist.NewExponential(1), 10, 0, 1)
	s := newSolver(t, m, 4, 1<<11, 50)
	if _, err := s.MeanTime(2, 2, 0, 0); err == nil {
		t.Fatal("mean with failures should error")
	}
	// Reading all three metrics reports a NaN mean instead.
	got, err := s.metrics(Pair(2, 2, 0, 0, nil), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got.Mean) {
		t.Fatal("metrics should flag undefined mean as NaN")
	}
}

func TestTransferSlowdownRaisesMean(t *testing.T) {
	// More transfer delay for the same policy must not speed things up.
	prev := 0.0
	for _, z := range []float64{0.5, 1.5, 4} {
		m := model2(dist.NewExponential(2), dist.NewExponential(1), 0, 0, z)
		s := newSolver(t, m, 10, 1<<12, 300)
		mean, err := s.MeanTime(8, 2, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		if mean < prev {
			t.Fatalf("mean fell from %g to %g as transfers slowed", prev, mean)
		}
		prev = mean
	}
}

// TestTailCorrectionRecoversHeavyTailMean: the Pareto-2 (infinite
// variance) mean computed on a short lattice with the single-big-jump
// correction must approach the value computed on a much wider lattice.
func TestTailCorrectionRecoversHeavyTailMean(t *testing.T) {
	mk := func() *core.Model {
		return &core.Model{
			Service: []dist.Dist{dist.NewPareto(1.5, 2), dist.NewPareto(1.5, 1)},
			Failure: []dist.Dist{dist.Never{}, dist.Never{}},
			Transfer: func(tasks, src, dst int) dist.Dist {
				return dist.NewPareto(1.5, 3*float64(tasks))
			},
		}
	}
	wide, err := NewSolver(mk(), Config{N: 1 << 15, Horizon: 20000, MaxQueue: [2]int{12, 12}})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := wide.MeanTime(8, 4, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	short, err := NewSolver(mk(), Config{N: 1 << 12, Horizon: 300, MaxQueue: [2]int{12, 12}})
	if err != nil {
		t.Fatal(err)
	}
	corrected, err := short.MeanTime(8, 4, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := rawMean(short, Pair(8, 4, 3, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(corrected-ref) >= math.Abs(raw-ref) {
		t.Fatalf("correction did not help: raw=%g corrected=%g ref=%g", raw, corrected, ref)
	}
	testutil.Almost(t, corrected, ref, 0.04, "corrected heavy-tail mean")
}

// TestPaperScaleSmoke: the solver must handle the paper's full workload
// (m1=100, m2=50) at a useful resolution without excessive tail loss.
func TestPaperScaleSmoke(t *testing.T) {
	m := model2(dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1), 0, 0, 1)
	s, err := NewSolver(m, Config{N: 1 << 13, Horizon: 600, MaxQueue: [2]int{150, 150}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.metrics(Pair(100, 50, 50, 0, nil), 180)
	if err != nil {
		t.Fatal(err)
	}
	// Low-delay optimum reasoning from the paper (§III-A1): serving
	// 50 tasks at server 1 (~100 s) and 50+50 at server 2 (~100 s with an
	// effectively instantaneous transfer) keeps both busy ~100 s.
	if got.Mean < 90 || got.Mean > 140 {
		t.Fatalf("paper-scale mean implausible: %g", got.Mean)
	}
	if got.TailMass > 1e-3 {
		t.Fatalf("tail mass too large at paper scale: %g", got.TailMass)
	}
	if got.QoS < 0 || got.QoS > 1 {
		t.Fatalf("QoS out of range: %g", got.QoS)
	}
}

// TestCompletionCDFConsistency: the CDF curve must pass through the QoS
// at every deadline and saturate at the reliability.
func TestCompletionCDFConsistency(t *testing.T) {
	m := model2(dist.NewPareto(2.5, 2), dist.NewExponential(1), 40, 25, 1)
	s := newSolver(t, m, 10, 1<<12, 120)
	cdf, err := s.CompletionCDF(6, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Monotone non-decreasing.
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1]-1e-12 {
			t.Fatalf("CDF decreases at %d", i)
		}
	}
	// Matches QoS pointwise.
	for _, tm := range []float64{5, 15, 40} {
		idx := int(tm / s.Dx())
		q, err := s.QoS(6, 4, 2, 1, float64(idx)*s.Dx())
		if err != nil {
			t.Fatal(err)
		}
		testutil.Almost(t, cdf[idx], q, 1e-9, "CDF vs QoS")
	}
	// Saturates at the reliability.
	rel, err := s.Reliability(6, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, cdf[len(cdf)-1], rel, 1e-6, "CDF limit vs reliability")
}

// TestHyperExponentialCrossCheck: the over-dispersed mixture family runs
// through the full solver stack and agrees with the regeneration solver.
func TestHyperExponentialCrossCheck(t *testing.T) {
	m := &core.Model{
		Service: []dist.Dist{dist.NewHyperExponential2(1.5, 4), dist.NewExponential(1)},
		Failure: []dist.Dist{dist.Never{}, dist.Never{}},
		Transfer: func(tasks, src, dst int) dist.Dist {
			return dist.NewHyperExponential2(0.8*float64(tasks), 3)
		},
	}
	s := newSolver(t, m, 6, 1<<12, 120)
	sv, err := core.NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	sv.Step = 0.15
	sv.Horizon = 90
	sv.AgeCap = 25
	st, _ := core.NewState(m, []int{2, 2}, core.Policy2(1, 0))
	want, err := sv.MeanTime(st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.MeanTime(2, 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, got, want, 0.05, "hyperexponential: direct vs core")
}
