package core

import (
	"math"
	"testing"

	"dtr/dist"
	"dtr/internal/quad"
	"dtr/internal/testutil"
)

// solver builds a solver with a test-friendly grid.
func solver(t *testing.T, m *Model, step float64) *Solver {
	t.Helper()
	sv, err := NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	sv.Step = step
	sv.Horizon = 120
	sv.AgeCap = 40
	return sv
}

// TestMeanTwoExponentialSingles: one task at each server, exponential
// services with means 1 and 2, no transfers. T = max(W1, W2) and
// E[max] = 1 + 2 − 1/(1 + 1/2) = 7/3.
func TestMeanTwoExponentialSingles(t *testing.T) {
	m := reliable2(dist.NewExponential(1), dist.NewExponential(2))
	sv := solver(t, m, 0.02)
	s, _ := NewState(m, []int{1, 1}, Policy2(0, 0))
	got, err := sv.MeanTime(s)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, got, 7.0/3, 0.02, "E[max of two exponentials]")
}

// TestMeanErlangQueue: k tasks at one server = sum of k exponentials.
func TestMeanErlangQueue(t *testing.T) {
	m := reliable2(dist.NewExponential(1.5), dist.NewExponential(1))
	sv := solver(t, m, 0.05)
	s, _ := NewState(m, []int{4, 0}, Policy2(0, 0))
	got, err := sv.MeanTime(s)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, got, 6, 0.02, "Erlang-4 mean")
}

// TestMeanWithTransfer: a single task in transit (exponential transfer
// mean 1) then served (exponential mean 2): E[T] = 1 + 2.
func TestMeanWithTransfer(t *testing.T) {
	m := reliable2(dist.NewExponential(2), dist.NewExponential(1))
	sv := solver(t, m, 0.04)
	s, _ := NewState(m, []int{1, 0}, Policy{{0, 0}, {0, 0}})
	s.Queue[0] = 0
	s.Groups = []Group{{Src: 1, Dst: 0, Tasks: 1}}
	got, err := sv.MeanTime(s)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, got, 3, 0.02, "transfer then service")
}

// TestQoSSingleExponential: P(W < TM) for one task.
func TestQoSSingleExponential(t *testing.T) {
	m := reliable2(dist.NewExponential(2), dist.NewExponential(1))
	sv := solver(t, m, 0.02)
	s, _ := NewState(m, []int{1, 0}, Policy2(0, 0))
	got, err := sv.QoS(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, got, 1-math.Exp(-1.5), 0.02, "QoS single exponential")
}

// TestQoSDeterministicService: degenerate service time pins T exactly.
func TestQoSDeterministicService(t *testing.T) {
	m := reliable2(dist.NewDeterministic(2), dist.NewExponential(1))
	sv := solver(t, m, 0.05)
	s, _ := NewState(m, []int{1, 0}, Policy2(0, 0))
	late, err := sv.QoS(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, late, 1, 1e-9, "deterministic well within deadline")
	early, err := sv.QoS(s, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, early, 0, 1e-9, "deterministic past deadline")
}

// TestQoSHypoexponential: transfer (mean 1) plus service (mean 2):
// T = Z + W, P(T < t) = 1 − (μ e^{−νt} − ν e^{−μt})/(μ − ν) with ν=1, μ=0.5.
func TestQoSHypoexponential(t *testing.T) {
	m := reliable2(dist.NewExponential(2), dist.NewExponential(1))
	sv := solver(t, m, 0.02)
	s, _ := NewState(m, []int{0, 0}, Policy2(0, 0))
	s.Groups = []Group{{Src: 1, Dst: 0, Tasks: 1}}
	tm := 4.0
	nu, mu := 1.0, 0.5
	want := 1 - (mu*math.Exp(-nu*tm)-nu*math.Exp(-mu*tm))/(mu-nu)
	got, err := sv.QoS(s, tm)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, got, want, 0.02, "QoS of transfer+service chain")
}

// TestReliabilityExponentialRace: k tasks, exponential service rate μ
// racing an exponential failure rate λ: R = (μ/(μ+λ))^k.
func TestReliabilityExponentialRace(t *testing.T) {
	mu, lambda := 1.0, 0.1
	m := twoServerModel(dist.NewExponential(1/mu), dist.NewExponential(1),
		dist.NewExponential(1/lambda), dist.Never{}, 1)
	sv := solver(t, m, 0.02)
	for _, k := range []int{1, 3} {
		s, _ := NewState(m, []int{k, 0}, Policy2(0, 0))
		got, err := sv.Reliability(s)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Pow(mu/(mu+lambda), float64(k))
		testutil.Almost(t, got, want, 0.02, "exponential race reliability")
	}
}

// TestReliabilityBothServersIndependent: with one task on each side the
// reliability is the product of the two races.
func TestReliabilityBothServersIndependent(t *testing.T) {
	m := twoServerModel(dist.NewExponential(1), dist.NewExponential(2),
		dist.NewExponential(10), dist.NewExponential(5), 1)
	sv := solver(t, m, 0.02)
	s, _ := NewState(m, []int{1, 1}, Policy2(0, 0))
	got, err := sv.Reliability(s)
	if err != nil {
		t.Fatal(err)
	}
	r1 := (1.0) / (1.0 + 0.1) // rate 1 vs rate 0.1
	r2 := (0.5) / (0.5 + 0.2) // rate 0.5 vs rate 0.2
	testutil.Almost(t, got, r1*r2, 0.02, "independent races")
}

// TestReliabilityWithTransfer: R = ν/(ν+λ) · μ/(μ+λ): the group must
// arrive before the destination fails, then the task must finish first.
func TestReliabilityWithTransfer(t *testing.T) {
	nu, mu, lambda := 1.0, 0.5, 0.125
	m := twoServerModel(dist.NewExponential(1/mu), dist.NewExponential(1),
		dist.NewExponential(1/lambda), dist.Never{}, 1/nu)
	sv := solver(t, m, 0.02)
	s, _ := NewState(m, []int{0, 0}, Policy2(0, 0))
	s.Groups = []Group{{Src: 1, Dst: 0, Tasks: 1}}
	got, err := sv.Reliability(s)
	if err != nil {
		t.Fatal(err)
	}
	want := nu / (nu + lambda) * mu / (mu + lambda)
	testutil.Almost(t, got, want, 0.02, "transfer race reliability")
}

// TestReliabilityParetoService: non-Markovian service vs exponential
// failure: R = ∫ f_W(s) e^{−λs} ds, evaluated independently by
// quadrature. This exercises the age machinery for real: the Pareto
// service clock's hazard changes as it ages.
func TestReliabilityParetoService(t *testing.T) {
	w := dist.NewPareto(2.5, 2)
	lambda := 0.1
	m := twoServerModel(w, dist.NewExponential(1),
		dist.NewExponential(1/lambda), dist.Never{}, 1)
	sv := solver(t, m, 0.02)
	sv.Horizon = 300
	s, _ := NewState(m, []int{1, 0}, Policy2(0, 0))
	got, err := sv.Reliability(s)
	if err != nil {
		t.Fatal(err)
	}
	want := quad.ToInf(func(x float64) float64 {
		return w.PDF(x) * math.Exp(-lambda*x)
	}, 0, 1e-11)
	testutil.Almost(t, got, want, 0.02, "Pareto service vs exponential failure")
}

// TestMeanNonExponential: two single-task servers with uniform services;
// E[max] computable by quadrature of the survival of the max.
func TestMeanNonExponential(t *testing.T) {
	u1 := dist.NewUniform(0.5, 1.5)
	u2 := dist.NewUniform(1, 3)
	m := reliable2(u1, u2)
	sv := solver(t, m, 0.02)
	s, _ := NewState(m, []int{1, 1}, Policy2(0, 0))
	got, err := sv.MeanTime(s)
	if err != nil {
		t.Fatal(err)
	}
	want := quad.Simpson(func(x float64) float64 {
		return 1 - u1.CDF(x)*u2.CDF(x)
	}, 0, 3, 1e-10)
	testutil.Almost(t, got, want, 0.02, "E[max] of uniforms")
}

// TestMeanRequiresReliableServers: the metric is undefined with failures.
func TestMeanRequiresReliableServers(t *testing.T) {
	m := twoServerModel(dist.NewExponential(1), dist.NewExponential(1),
		dist.NewExponential(10), dist.Never{}, 1)
	sv := solver(t, m, 0.05)
	s, _ := NewState(m, []int{1, 0}, Policy2(0, 0))
	if _, err := sv.MeanTime(s); err == nil {
		t.Fatal("mean time with failure-prone servers should error")
	}
}

// TestTrackFNInvariance: the metrics do not depend on failure-notice
// traffic (no control action is tied to it in this model), so including
// the FN clocks in the regeneration event set must not change the answer.
// This validates the paper's event algebra and our marginalization.
func TestTrackFNInvariance(t *testing.T) {
	m := twoServerModel(dist.NewPareto(2.5, 1), dist.NewExponential(1),
		dist.NewExponential(8), dist.NewExponential(12), 0.5)
	s, _ := NewState(m, []int{2, 1}, Policy2(1, 0))

	svOff := solver(t, m, 0.05)
	svOff.TrackFN = false
	rOff, err := svOff.Reliability(s)
	if err != nil {
		t.Fatal(err)
	}
	svOn := solver(t, m, 0.05)
	svOn.TrackFN = true
	rOn, err := svOn.Reliability(s)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, rOn, rOff, 0.01, "FN marginalization invariance")
}

// TestAgedInitialState: a deterministic service clock with initial age
// shifts the finish time by exactly the age.
func TestAgedInitialState(t *testing.T) {
	m := reliable2(dist.NewDeterministic(2), dist.NewExponential(1))
	sv := solver(t, m, 0.05)
	s, _ := NewState(m, []int{1, 0}, Policy2(0, 0))
	s.AgeW[0] = 1 // one unit of the 2-unit service already elapsed
	q, err := sv.QoS(s, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, q, 1, 1e-9, "aged deterministic clock finishes in residual time")
}

// TestQoSMonotoneInDeadline: more time can only help.
func TestQoSMonotoneInDeadline(t *testing.T) {
	m := reliable2(dist.NewPareto(2.5, 1), dist.NewUniform(0.5, 1.5))
	sv := solver(t, m, 0.05)
	s, _ := NewState(m, []int{2, 2}, Policy2(1, 0))
	prev := -1.0
	for _, tm := range []float64{0.5, 1, 2, 4, 8, 16} {
		q, err := sv.QoS(s, tm)
		if err != nil {
			t.Fatal(err)
		}
		if q < prev-1e-9 {
			t.Fatalf("QoS decreased with deadline: %g after %g", q, prev)
		}
		if q < 0 || q > 1 {
			t.Fatalf("QoS out of range: %g", q)
		}
		prev = q
	}
}

// TestReliabilityMonotoneInFailureRate: faster failures, lower
// reliability.
func TestReliabilityMonotoneInFailureRate(t *testing.T) {
	prev := 2.0
	for _, fmean := range []float64{50, 10, 3} {
		m := twoServerModel(dist.NewUniform(0.5, 1.5), dist.NewExponential(1),
			dist.NewExponential(fmean), dist.NewExponential(fmean), 1)
		sv := solver(t, m, 0.05)
		s, _ := NewState(m, []int{2, 2}, Policy2(0, 0))
		r, err := sv.Reliability(s)
		if err != nil {
			t.Fatal(err)
		}
		if r >= prev {
			t.Fatalf("reliability should fall with failure rate: %g then %g", prev, r)
		}
		prev = r
	}
}

// TestSolverConvergence: halving the step should move the answer toward
// the exact value (ablation XA-1 in miniature).
func TestSolverConvergence(t *testing.T) {
	m := reliable2(dist.NewExponential(1), dist.NewExponential(2))
	s, _ := NewState(m, []int{1, 1}, Policy2(0, 0))
	exact := 7.0 / 3
	var errs []float64
	for _, h := range []float64{0.2, 0.05} {
		sv := solver(t, m, h)
		got, err := sv.MeanTime(s)
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, math.Abs(got-exact))
	}
	if errs[1] > errs[0] {
		t.Fatalf("finer grid got worse: %v", errs)
	}
}

// TestMaxStatesGuard: the budget valve must trip, not hang.
func TestMaxStatesGuard(t *testing.T) {
	m := reliable2(dist.NewPareto(2.5, 1), dist.NewPareto(2.5, 2))
	sv := solver(t, m, 0.01)
	sv.MaxStates = 50
	s, _ := NewState(m, []int{6, 6}, Policy2(2, 2))
	if _, err := sv.MeanTime(s); err == nil {
		t.Fatal("MaxStates should have tripped")
	}
}

// TestMemorylessStateNormalization: with all-exponential inputs the age
// grid must collapse — the number of memoized states stays small even at
// a fine step, because exponential ages are normalized away.
func TestMemorylessStateNormalization(t *testing.T) {
	m := reliable2(dist.NewExponential(1), dist.NewExponential(2))
	sv := solver(t, m, 0.01)
	s, _ := NewState(m, []int{5, 5}, Policy2(0, 0))
	if _, err := sv.MeanTime(s); err != nil {
		t.Fatal(err)
	}
	// Discrete states: (q1, q2) pairs only, ~36.
	if sv.States() > 100 {
		t.Fatalf("exponential model should memoize O(q1*q2) states, got %d", sv.States())
	}
}
