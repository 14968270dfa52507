package markov

import (
	"math"
	"testing"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/testutil"
)

// expModel builds an all-exponential two-server core.Model.
func expModel(mean1, mean2, fmean1, fmean2, zPerTask float64) *core.Model {
	fail := func(mean float64) dist.Dist {
		if mean <= 0 {
			return dist.Never{}
		}
		return dist.NewExponential(mean)
	}
	return &core.Model{
		Service: []dist.Dist{dist.NewExponential(mean1), dist.NewExponential(mean2)},
		Failure: []dist.Dist{fail(fmean1), fail(fmean2)},
		Transfer: func(tasks, src, dst int) dist.Dist {
			return dist.NewExponential(zPerTask * float64(tasks))
		},
	}
}

func TestFromModelExtractsRates(t *testing.T) {
	m := expModel(2, 1, 1000, 500, 1)
	s, err := FromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, s.Mu[0], 0.5, 1e-12, "mu1")
	testutil.Almost(t, s.Mu[1], 1, 1e-12, "mu2")
	testutil.Almost(t, s.Lambda[0], 0.001, 1e-12, "lambda1")
	testutil.Almost(t, s.TransferRate(4, 0, 1), 0.25, 1e-12, "transfer rate")
}

func TestFromModelRejectsNonExponential(t *testing.T) {
	m := expModel(2, 1, 0, 0, 1)
	m.Service[0] = dist.NewPareto(2.5, 2)
	if _, err := FromModel(m); err == nil {
		t.Fatal("non-exponential service should be rejected")
	}
}

// TestMeanClosedForms: E[max(Exp(1), Exp(1/2))] = 1 + 2 − 2/3 = 7/3, and
// an Erlang queue.
func TestMeanClosedForms(t *testing.T) {
	m := expModel(1, 2, 0, 0, 1)
	s, _ := FromModel(m)
	st, _ := core.NewState(m, []int{1, 1}, core.Policy2(0, 0))
	got, err := s.MeanTime(st)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, got, 7.0/3, 1e-12, "E[max]")

	st2, _ := core.NewState(m, []int{5, 0}, core.Policy2(0, 0))
	got, err = s.MeanTime(st2)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, got, 5, 1e-12, "Erlang-5 mean")
}

func TestMeanWithTransferClosedForm(t *testing.T) {
	// One group of 1 task to server 0 (service mean 2, transfer mean 1):
	// E[T] = 1 + 2 = 3 exactly in the Markovian model.
	m := expModel(2, 1, 0, 0, 1)
	s, _ := FromModel(m)
	st, _ := core.NewState(m, []int{0, 1}, core.Policy2(0, 1))
	// st: server 1 sent its single task to server 0.
	got, err := s.MeanTime(st)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, got, 3, 1e-12, "transfer + service mean")
}

func TestMeanRequiresReliable(t *testing.T) {
	m := expModel(1, 1, 100, 0, 1)
	s, _ := FromModel(m)
	st, _ := core.NewState(m, []int{1, 0}, core.Policy2(0, 0))
	if _, err := s.MeanTime(st); err == nil {
		t.Fatal("mean with failures should error")
	}
}

func TestReliabilityClosedForms(t *testing.T) {
	// Race: (mu/(mu+lambda))^k per server, product across servers.
	m := expModel(1, 2, 10, 5, 1)
	s, _ := FromModel(m)
	st, _ := core.NewState(m, []int{2, 1}, core.Policy2(0, 0))
	got, err := s.Reliability(st)
	if err != nil {
		t.Fatal(err)
	}
	r1 := math.Pow(1.0/(1.0+0.1), 2)
	r2 := 0.5 / (0.5 + 0.2)
	testutil.Almost(t, got, r1*r2, 1e-12, "product of races")
}

func TestReliabilityWithTransfer(t *testing.T) {
	// nu/(nu+lambda) * mu/(mu+lambda), transfer to server 0.
	m := expModel(2, 1, 8, 0, 1)
	s, _ := FromModel(m)
	st, _ := core.NewState(m, []int{0, 1}, core.Policy2(0, 1))
	got, err := s.Reliability(st)
	if err != nil {
		t.Fatal(err)
	}
	nu, mu, lambda := 1.0, 0.5, 0.125
	testutil.Almost(t, got, nu/(nu+lambda)*mu/(mu+lambda), 1e-12, "transfer race")
}

func TestQoSClosedForms(t *testing.T) {
	m := expModel(2, 1, 0, 0, 1)
	s, _ := FromModel(m)
	// Single exponential service, mean 2: P(T < 3).
	st, _ := core.NewState(m, []int{1, 0}, core.Policy2(0, 0))
	got, err := s.QoS(st, 3)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, got, 1-math.Exp(-1.5), 1e-9, "single exponential QoS")

	// Erlang-2 (two tasks, rate 0.5): P(T<t) = 1 − e^{−t/2}(1 + t/2).
	st2, _ := core.NewState(m, []int{2, 0}, core.Policy2(0, 0))
	got, err = s.QoS(st2, 4)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, got, 1-math.Exp(-2)*(1+2), 1e-9, "Erlang-2 QoS")
}

func TestQoSHypoexponential(t *testing.T) {
	// Transfer (rate 1) then service (rate 0.5).
	m := expModel(2, 1, 0, 0, 1)
	s, _ := FromModel(m)
	st, _ := core.NewState(m, []int{0, 1}, core.Policy2(0, 1))
	tm := 4.0
	nu, mu := 1.0, 0.5
	want := 1 - (mu*math.Exp(-nu*tm)-nu*math.Exp(-mu*tm))/(mu-nu)
	got, err := s.QoS(st, tm)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, got, want, 1e-9, "hypoexponential QoS")
}

func TestQoSLimits(t *testing.T) {
	m := expModel(1, 1, 50, 50, 1)
	s, _ := FromModel(m)
	st, _ := core.NewState(m, []int{2, 2}, core.Policy2(1, 0))
	zero, err := s.QoS(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	if zero != 0 {
		t.Fatalf("QoS at deadline 0 should be 0, got %g", zero)
	}
	// QoS with a huge deadline converges to the reliability.
	rel, err := s.Reliability(st)
	if err != nil {
		t.Fatal(err)
	}
	big, err := s.QoS(st, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, big, rel, 1e-6, "QoS(inf) = reliability")
}

// TestQoSMatchesCoreSolver: on exponential inputs the age-dependent
// solver and the Markov chain must agree — the central consistency check
// between the paper's general theory and its Markovian special case.
func TestQoSMatchesCoreSolver(t *testing.T) {
	m := expModel(1, 0.7, 30, 20, 0.8)
	s, _ := FromModel(m)
	sv, err := core.NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	sv.Step = 0.02
	sv.Horizon = 100
	st, _ := core.NewState(m, []int{2, 1}, core.Policy2(1, 0))

	mkQ, err := s.QoS(st, 5)
	if err != nil {
		t.Fatal(err)
	}
	coreQ, err := sv.QoS(st, 5)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, coreQ, mkQ, 0.02, "core vs markov QoS")

	mkR, err := s.Reliability(st)
	if err != nil {
		t.Fatal(err)
	}
	coreR, err := sv.Reliability(st)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, coreR, mkR, 0.02, "core vs markov reliability")
}

func TestMeanMatchesCoreSolver(t *testing.T) {
	m := expModel(1.3, 0.9, 0, 0, 0.5)
	s, _ := FromModel(m)
	sv, err := core.NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	sv.Step = 0.02
	sv.Horizon = 150
	st, _ := core.NewState(m, []int{3, 2}, core.Policy2(1, 1))

	mkT, err := s.MeanTime(st)
	if err != nil {
		t.Fatal(err)
	}
	coreT, err := sv.MeanTime(st)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, coreT, mkT, 0.02, "core vs markov mean")
}

// TestManyGroupsMatchCoreSolver: neither the chain nor the regeneration
// solver caps the number of in-flight groups; five at once must agree.
func TestManyGroupsMatchCoreSolver(t *testing.T) {
	m := expModel(1, 1, 0, 0, 1)
	s, _ := FromModel(m)
	sv, err := core.NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	sv.Step = 0.02
	sv.Horizon = 100
	st, _ := core.NewState(m, []int{2, 1}, core.Policy2(0, 0))
	for i := 0; i < 5; i++ {
		st.Groups = append(st.Groups, core.Group{Src: i % 2, Dst: 1 - i%2, Tasks: 1 + i%2})
	}
	mkT, err := s.MeanTime(st)
	if err != nil {
		t.Fatal(err)
	}
	coreT, err := sv.MeanTime(st)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, coreT, mkT, 0.02, "core vs markov mean, five groups")
}
