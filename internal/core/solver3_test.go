package core

import (
	"math"
	"testing"

	"dtr/dist"
	"dtr/internal/testutil"
)

// threeServerModel builds a small heterogeneous 3-server model.
func threeServerModel(reliable bool) *Model {
	fail := func(mean float64) dist.Dist {
		if reliable {
			return dist.Never{}
		}
		return dist.NewExponential(mean)
	}
	return &Model{
		Service: []dist.Dist{
			dist.NewExponential(1.5),
			dist.NewExponential(1),
			dist.NewExponential(0.5),
		},
		Failure: []dist.Dist{fail(20), fail(15), fail(10)},
		Transfer: func(tasks, src, dst int) dist.Dist {
			return dist.NewExponential(0.6 * float64(tasks))
		},
	}
}

// TestNSolverThreeServerClosedForms: with exponential everything the
// three-server metrics have simple closed forms for single-task queues.
func TestNSolverThreeServerClosedForms(t *testing.T) {
	m := threeServerModel(true)
	svn := solver(t, m, 0.02)
	s, err := NewState(m, []int{1, 1, 1}, NewPolicy(3))
	if err != nil {
		t.Fatal(err)
	}
	// E[max of exp(2/3), exp(1), exp(2)] by inclusion–exclusion:
	// Σ 1/λi − Σ 1/(λi+λj) + 1/(λ1+λ2+λ3).
	l1, l2, l3 := 1/1.5, 1.0, 2.0
	want := 1/l1 + 1/l2 + 1/l3 -
		1/(l1+l2) - 1/(l1+l3) - 1/(l2+l3) +
		1/(l1+l2+l3)
	got, err := svn.MeanTime(s)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, got, want, 0.02, "3-server E[max] inclusion-exclusion")
}

func TestNSolverThreeServerReliabilityProduct(t *testing.T) {
	m := threeServerModel(false)
	svn := solver(t, m, 0.02)
	s, _ := NewState(m, []int{1, 1, 1}, NewPolicy(3))
	got, err := svn.Reliability(s)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0
	rates := []float64{1 / 1.5, 1, 2}
	fails := []float64{1.0 / 20, 1.0 / 15, 1.0 / 10}
	for i := range rates {
		want *= rates[i] / (rates[i] + fails[i])
	}
	testutil.Almost(t, got, want, 0.02, "3-server reliability product")
}

// TestNSolverThreeServerWithTransfer: a group in flight to the fastest
// server; mean time = E[max(W_slow queue, Z + W_fast)] — checked against
// the Monte-Carlo simulator indirectly through a closed form.
func TestNSolverThreeServerWithTransfer(t *testing.T) {
	m := threeServerModel(true)
	svn := solver(t, m, 0.02)
	s, err := NewState(m, []int{1, 0, 0}, Policy{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	s.Groups = []Group{{Src: 0, Dst: 2, Tasks: 1}}
	got, err := svn.MeanTime(s)
	if err != nil {
		t.Fatal(err)
	}
	// T = max(W1, Z + W3): E by integrating the survival product.
	// W1 ~ exp(2/3), Z ~ exp(1/0.6), W3 ~ exp(2); Z+W3 hypoexponential.
	lw, lz, l3 := 1/1.5, 1/0.6, 2.0
	// E[max(A,B)] = E[A] + E[B] − E[min]; with A exp and B hypo the min
	// has no simple form, so integrate numerically here in the test.
	h := 1e-3
	var mean float64
	for x := 0.0; x < 60; x += h {
		sa := math.Exp(-lw * x)
		sb := (lz*math.Exp(-l3*x) - l3*math.Exp(-lz*x)) / (lz - l3)
		mean += (1 - (1-sa)*(1-sb)) * h
	}
	testutil.Almost(t, got, mean, 0.02, "3-server transfer chain")
}

// TestNSolverQoSMonotone: sanity across a 3-server non-Markovian case.
func TestNSolverQoSMonotoneNonMarkovian(t *testing.T) {
	m := &Model{
		Service: []dist.Dist{
			dist.NewPareto(2.5, 1),
			dist.NewUniform(0.3, 0.9),
			dist.NewShiftedExponential(0.2, 0.7),
		},
		Failure: []dist.Dist{dist.Never{}, dist.Never{}, dist.Never{}},
		Transfer: func(tasks, src, dst int) dist.Dist {
			return dist.NewPareto(2.5, 0.5*float64(tasks))
		},
	}
	svn := solver(t, m, 0.05)
	p := NewPolicy(3)
	p[0][2] = 1
	s, err := NewState(m, []int{2, 1, 0}, p)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, tm := range []float64{0.5, 1.5, 4, 10} {
		q, err := svn.QoS(s, tm)
		if err != nil {
			t.Fatal(err)
		}
		if q < prev-1e-9 || q < 0 || q > 1 {
			t.Fatalf("QoS not monotone/in range: %g after %g", q, prev)
		}
		prev = q
	}
}

func TestNSolverGuards(t *testing.T) {
	m := threeServerModel(false)
	svn := solver(t, m, 0.05)
	s, _ := NewState(m, []int{1, 1, 1}, NewPolicy(3))
	if _, err := svn.MeanTime(s); err == nil {
		t.Fatal("mean with failures should error")
	}
	// Non-Markovian ages are needed to blow the memo budget (exponential
	// ages normalize away), so use a Pareto model.
	m3 := &Model{
		Service: []dist.Dist{dist.NewPareto(2.5, 1), dist.NewPareto(2.5, 1), dist.NewPareto(2.5, 1)},
		Failure: []dist.Dist{dist.Never{}, dist.Never{}, dist.Never{}},
		Transfer: func(tasks, src, dst int) dist.Dist {
			return dist.NewPareto(2.5, float64(tasks))
		},
	}
	svn3 := solver(t, m3, 0.01)
	svn3.MaxStates = 10
	big2, _ := NewState(m3, []int{4, 4, 4}, NewPolicy(3))
	if _, err := svn3.MeanTime(big2); err == nil {
		t.Fatal("MaxStates should trip")
	}
}

// TestGroupSourceInMemoKey: with three or more servers a group's transfer
// law depends on where it comes from, so two configurations that differ
// only in a group's source must not share a memo entry.
func TestGroupSourceInMemoKey(t *testing.T) {
	m := threeServerModel(true)
	m.Transfer = func(tasks, src, dst int) dist.Dist {
		return dist.NewExponential(float64(1 + 2*src))
	}
	sv := solver(t, m, 0.02)
	for src, want := range []float64{1 + 0.5, 3 + 0.5} { // E[Z_src] + E[W_3]
		s, err := NewState(m, []int{0, 0, 0}, NewPolicy(3))
		if err != nil {
			t.Fatal(err)
		}
		s.Groups = []Group{{Src: src, Dst: 2, Tasks: 1}}
		got, err := sv.MeanTime(s)
		if err != nil {
			t.Fatal(err)
		}
		testutil.Almost(t, got, want, 0.02, "one group in flight to server 3")
	}
}
