package nserver

import (
	"math"
	"testing"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/direct"
	"dtr/internal/sim"
	"dtr/internal/testutil"
)

// model builds an n-server model with the given service means.
func model(serviceMeans []float64, failMeans []float64, zPerTask float64) *core.Model {
	m := &core.Model{}
	for i, mean := range serviceMeans {
		m.Service = append(m.Service, dist.NewPareto(2.5, mean))
		if failMeans == nil {
			m.Failure = append(m.Failure, dist.Never{})
		} else {
			m.Failure = append(m.Failure, dist.NewExponential(failMeans[i]))
		}
	}
	m.Transfer = func(tasks, src, dst int) dist.Dist {
		if tasks < 1 {
			tasks = 1
		}
		return dist.NewPareto(2.5, zPerTask*float64(tasks))
	}
	return m
}

// TestBoundsCollapseToExactTwoServer: with at most one group per server
// the two bound sides coincide and match the exact convolution solver.
func TestBoundsCollapseToExactTwoServer(t *testing.T) {
	m := model([]float64{2, 1}, nil, 1)
	ns, err := NewSolver(m, Config{GridN: 1 << 12, Horizon: 80, MaxQueue: 16})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := direct.NewSolver(m, direct.Config{N: 1 << 12, Horizon: 80, MaxQueue: [2]int{16, 16}})
	if err != nil {
		t.Fatal(err)
	}
	ds.TailCorrect = false // compare raw lattice values

	b, err := ns.Evaluate([]int{8, 4}, core.Policy2(3, 1), 25)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Exact {
		t.Fatal("one group per direction should be flagged exact")
	}
	testutil.Almost(t, b.Optimistic.Mean, b.Pessimistic.Mean, 1e-12, "sides coincide")
	wantMean, err := ds.MeanTime(8, 4, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, b.Optimistic.Mean, wantMean, 1e-5, "bounds equal exact mean")
	wantQoS, err := ds.QoS(8, 4, 3, 1, 25)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, b.Optimistic.QoS, wantQoS, 1e-5, "bounds equal exact QoS")
}

// TestBoundsBracketSimulation: with two groups converging on the fast
// server the true metrics (Monte-Carlo) must lie inside the bounds.
func TestBoundsBracketSimulation(t *testing.T) {
	m := model([]float64{3, 2, 1}, nil, 1.2)
	ns, err := NewSolver(m, Config{GridN: 1 << 12, Horizon: 150, MaxQueue: 24})
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewPolicy(3)
	p[0][2] = 4
	p[1][2] = 3
	initial := []int{10, 6, 2}

	b, err := ns.Evaluate(initial, p, 40)
	if err != nil {
		t.Fatal(err)
	}
	if b.Exact {
		t.Fatal("two groups to one server is not the exact case")
	}
	if b.Optimistic.Mean > b.Pessimistic.Mean {
		t.Fatalf("bound sides inverted: %g > %g", b.Optimistic.Mean, b.Pessimistic.Mean)
	}

	est, err := sim.Estimate(m, initial, p, sim.Options{Reps: 20000, Seed: 9, Deadline: 40})
	if err != nil {
		t.Fatal(err)
	}
	slack := 3 * est.MeanTimeHalf
	if est.MeanTime < b.Optimistic.Mean-slack || est.MeanTime > b.Pessimistic.Mean+slack {
		t.Fatalf("simulated mean %g ± %g outside [%g, %g]",
			est.MeanTime, est.MeanTimeHalf, b.Optimistic.Mean, b.Pessimistic.Mean)
	}
	qSlack := 3 * est.QoSHalf
	if est.QoS > b.Optimistic.QoS+qSlack || est.QoS < b.Pessimistic.QoS-qSlack {
		t.Fatalf("simulated QoS %g ± %g outside [%g, %g]",
			est.QoS, est.QoSHalf, b.Pessimistic.QoS, b.Optimistic.QoS)
	}
}

// TestReliabilityBoundsBracketSimulation: same bracketing for the
// failure-prone metric.
func TestReliabilityBoundsBracketSimulation(t *testing.T) {
	m := model([]float64{3, 2, 1}, []float64{60, 50, 40}, 1.2)
	ns, err := NewSolver(m, Config{GridN: 1 << 12, Horizon: 150, MaxQueue: 24})
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewPolicy(3)
	p[0][2] = 4
	p[1][2] = 3
	initial := []int{10, 6, 2}
	b, err := ns.Evaluate(initial, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !(b.Pessimistic.Reliability <= b.Optimistic.Reliability) {
		t.Fatalf("reliability bounds inverted: %g > %g", b.Pessimistic.Reliability, b.Optimistic.Reliability)
	}
	est, err := sim.Estimate(m, initial, p, sim.Options{Reps: 20000, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	slack := 3 * est.ReliabilityHalf
	if est.Reliability < b.Pessimistic.Reliability-slack || est.Reliability > b.Optimistic.Reliability+slack {
		t.Fatalf("simulated reliability %g ± %g outside [%g, %g]",
			est.Reliability, est.ReliabilityHalf, b.Pessimistic.Reliability, b.Optimistic.Reliability)
	}
	if !math.IsNaN(b.Optimistic.QoS) {
		t.Fatal("QoS without deadline should be NaN")
	}
	if !math.IsNaN(b.Optimistic.Mean) {
		t.Fatal("mean with failures should be NaN")
	}
}

func TestSolverValidation(t *testing.T) {
	m := model([]float64{1, 1}, nil, 1)
	if _, err := NewSolver(m, Config{MaxQueue: 0}); err == nil {
		t.Fatal("MaxQueue 0 should fail")
	}
	ns, err := NewSolver(m, Config{GridN: 1 << 10, Horizon: 40, MaxQueue: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Evaluate([]int{10, 0}, core.Policy2(0, 0), 0); err == nil {
		t.Fatal("load above MaxQueue should fail")
	}
	if _, err := ns.Evaluate([]int{2, 2}, core.Policy2(9, 0), 0); err == nil {
		t.Fatal("invalid policy should fail")
	}
}
