package markov

import (
	"math"
	"testing"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/testutil"
)

// expModelN builds an all-exponential n-server core.Model.
func expModelN(serviceMeans, failMeans []float64, zPerTask float64) *core.Model {
	m := &core.Model{}
	for i := range serviceMeans {
		m.Service = append(m.Service, dist.NewExponential(serviceMeans[i]))
		if failMeans == nil || failMeans[i] <= 0 {
			m.Failure = append(m.Failure, dist.Never{})
		} else {
			m.Failure = append(m.Failure, dist.NewExponential(failMeans[i]))
		}
	}
	m.Transfer = func(tasks, src, dst int) dist.Dist {
		return dist.NewExponential(zPerTask * float64(tasks))
	}
	return m
}

// TestNSystemMatchesTwoServerSystem pins the chain to the values the former
// fixed-[2]-array copy returned on a two-server state (commit 9b04f59), at
// the tolerances the copy-vs-copy comparison used.
func TestNSystemMatchesTwoServerSystem(t *testing.T) {
	m := expModel(2, 1, 40, 25, 1)
	s, err := FromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := core.NewState(m, []int{5, 3}, core.Policy2(2, 1))
	r, err := s.Reliability(st)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, r, 0.67881582352834569, 1e-12, "reliability vs pinned two-server value")
	q, err := s.QoS(st, 12)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, q, 0.58793269072311904, 1e-9, "QoS vs pinned two-server value")
}

func TestNSystemThreeServerClosedForms(t *testing.T) {
	m := expModelN([]float64{1.5, 1, 0.5}, nil, 0.6)
	sn, err := FromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := core.NewState(m, []int{1, 1, 1}, core.NewPolicy(3))
	got, err := sn.MeanTime(st)
	if err != nil {
		t.Fatal(err)
	}
	l1, l2, l3 := 1/1.5, 1.0, 2.0
	want := 1/l1 + 1/l2 + 1/l3 -
		1/(l1+l2) - 1/(l1+l3) - 1/(l2+l3) +
		1/(l1+l2+l3)
	testutil.Almost(t, got, want, 1e-12, "inclusion-exclusion E[max]")
}

// TestNSystemMatchesNSolver: the age-dependent recursion and the Markov
// chain must agree on exponential inputs — the three-server leg of the
// XV-1 cross-validation.
func TestNSystemMatchesNSolver(t *testing.T) {
	m := expModelN([]float64{1.2, 0.9, 0.6}, []float64{25, 20, 15}, 0.7)
	sn, err := FromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := core.NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	sv.Step = 0.03
	sv.Horizon = 80
	p := core.NewPolicy(3)
	p[0][2] = 1
	st, err := core.NewState(m, []int{2, 1, 0}, p)
	if err != nil {
		t.Fatal(err)
	}

	wantR, err := sn.Reliability(st)
	if err != nil {
		t.Fatal(err)
	}
	gotR, err := sv.Reliability(st)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, gotR, wantR, 0.02, "core vs markov reliability, 3 servers")

	wantQ, err := sn.QoS(st, 6)
	if err != nil {
		t.Fatal(err)
	}
	gotQ, err := sv.QoS(st, 6)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, gotQ, wantQ, 0.02, "core vs markov QoS, 3 servers")
}

func TestNSystemMeanMatchesNSolver(t *testing.T) {
	m := expModelN([]float64{1.2, 0.9, 0.6}, nil, 0.7)
	sn, err := FromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := core.NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	sv.Step = 0.03
	sv.Horizon = 80
	p := core.NewPolicy(3)
	p[0][1] = 1
	st, _ := core.NewState(m, []int{2, 0, 1}, p)
	want, err := sn.MeanTime(st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sv.MeanTime(st)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, got, want, 0.02, "core vs markov mean, 3 servers")
}

func TestNSystemRejectsNonExponential(t *testing.T) {
	m := expModelN([]float64{1, 1, 1}, nil, 1)
	m.Service[1] = dist.NewPareto(2.5, 1)
	if _, err := FromModel(m); err == nil {
		t.Fatal("non-exponential service should be rejected")
	}
}

func TestNSystemQoSLimits(t *testing.T) {
	m := expModelN([]float64{1, 1, 1}, []float64{30, 30, 30}, 1)
	sn, _ := FromModel(m)
	st, _ := core.NewState(m, []int{2, 1, 1}, core.NewPolicy(3))
	zero, err := sn.QoS(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	if zero != 0 {
		t.Fatalf("QoS(0) = %g", zero)
	}
	rel, err := sn.Reliability(st)
	if err != nil {
		t.Fatal(err)
	}
	big, err := sn.QoS(st, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(big-rel) > 1e-6 {
		t.Fatalf("QoS(inf)=%g vs reliability %g", big, rel)
	}
	if _, err := sn.MeanTime(st); err == nil {
		t.Fatal("mean with failures should error")
	}
}
