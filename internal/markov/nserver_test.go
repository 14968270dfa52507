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

func TestNSystemMatchesTwoServerSystem(t *testing.T) {
	m := expModel(2, 1, 40, 25, 1)
	s2, err := FromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := NFromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := core.NewState(m, []int{5, 3}, core.Policy2(2, 1))
	r2, err := s2.Reliability(st)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := sn.Reliability(st)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, rn, r2, 1e-12, "n-system vs 2-system reliability")

	q2, err := s2.QoS(st, 12)
	if err != nil {
		t.Fatal(err)
	}
	qn, err := sn.QoS(st, 12)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, qn, q2, 1e-9, "n-system vs 2-system QoS")
}

func TestNSystemThreeServerClosedForms(t *testing.T) {
	m := expModelN([]float64{1.5, 1, 0.5}, nil, 0.6)
	sn, err := NFromModel(m)
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

// TestNSystemMatchesNSolver: the n-server age-dependent recursion and the
// n-server Markov chain must agree on exponential inputs — the n-server
// leg of the XV-1 cross-validation.
func TestNSystemMatchesNSolver(t *testing.T) {
	m := expModelN([]float64{1.2, 0.9, 0.6}, []float64{25, 20, 15}, 0.7)
	sn, err := NFromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := core.NewNSolver(m)
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
	testutil.Almost(t, gotR, wantR, 0.02, "NSolver vs NSystem reliability")

	wantQ, err := sn.QoS(st, 6)
	if err != nil {
		t.Fatal(err)
	}
	gotQ, err := sv.QoS(st, 6)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, gotQ, wantQ, 0.02, "NSolver vs NSystem QoS")
}

func TestNSystemMeanMatchesNSolver(t *testing.T) {
	m := expModelN([]float64{1.2, 0.9, 0.6}, nil, 0.7)
	sn, err := NFromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := core.NewNSolver(m)
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
	testutil.Almost(t, got, want, 0.02, "NSolver vs NSystem mean")
}

func TestNSystemRejectsNonExponential(t *testing.T) {
	m := expModelN([]float64{1, 1, 1}, nil, 1)
	m.Service[1] = dist.NewPareto(2.5, 1)
	if _, err := NFromModel(m); err == nil {
		t.Fatal("non-exponential service should be rejected")
	}
}

func TestNSystemQoSLimits(t *testing.T) {
	m := expModelN([]float64{1, 1, 1}, []float64{30, 30, 30}, 1)
	sn, _ := NFromModel(m)
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
