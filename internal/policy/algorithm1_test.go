package policy

import (
	"math"
	"slices"
	"testing"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/direct"
	"dtr/internal/sim"
	"dtr/internal/testutil"
)

// fiveServer builds the Table II model shape: service means 5..1 s,
// failure means 1000..400 s, transfers exponential with mean z per task.
func fiveServer(family dist.Family, zPerTask float64, reliable bool) *core.Model {
	serviceMeans := []float64{5, 4, 3, 2, 1}
	failMeans := []float64{1000, 800, 600, 500, 400}
	m := &core.Model{}
	for i := range serviceMeans {
		m.Service = append(m.Service, family.WithMean(serviceMeans[i]))
		if reliable {
			m.Failure = append(m.Failure, dist.Never{})
		} else {
			m.Failure = append(m.Failure, dist.NewExponential(failMeans[i]))
		}
	}
	m.Transfer = func(tasks, src, dst int) dist.Dist {
		return family.WithMean(zPerTask * float64(tasks))
	}
	return m
}

func TestAlgorithm1ProducesFeasiblePolicy(t *testing.T) {
	m := fiveServer(dist.FamilyPareto1, 1, true)
	queues := []int{80, 50, 30, 25, 15}
	p, err := Algorithm1(m, queues, Alg1Options{Objective: ObjMeanTime, K: 3, GridN: 1 << 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(queues); err != nil {
		t.Fatal(err)
	}
	// The slow overloaded servers must ship something toward the fast end.
	total := 0
	for i := range p {
		for j := range p[i] {
			total += p[i][j]
		}
	}
	if total == 0 {
		t.Fatal("Algorithm 1 moved nothing on a badly imbalanced system")
	}
}

// TestAlgorithm1BeatsNoReallocation: the simulated mean execution time
// under the Algorithm-1 policy must beat leaving the imbalanced
// allocation alone (the paper's motivation for DTR).
func TestAlgorithm1BeatsNoReallocation(t *testing.T) {
	m := fiveServer(dist.FamilyPareto1, 0.5, true)
	queues := []int{80, 50, 30, 25, 15}
	p, err := Algorithm1(m, queues, Alg1Options{Objective: ObjMeanTime, K: 3, GridN: 1 << 11})
	if err != nil {
		t.Fatal(err)
	}
	withPolicy, err := sim.Estimate(m, queues, p, sim.Options{Reps: 3000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	noPolicy, err := sim.Estimate(m, queues, core.NewPolicy(5), sim.Options{Reps: 3000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if withPolicy.MeanTime >= noPolicy.MeanTime {
		t.Fatalf("Algorithm 1 (%.1f s) should beat no reallocation (%.1f s)",
			withPolicy.MeanTime, noPolicy.MeanTime)
	}
}

func TestAlgorithm1TwoServerMatchesOptimize2Direction(t *testing.T) {
	// On a 2-server system Algorithm 1 reduces to one pairwise solve; the
	// resulting shipment should match the exact optimizer's.
	m2 := model2(dist.NewExponential(2), dist.NewExponential(1), 0, 0, 0.2)
	queues := []int{20, 4}
	p, err := Algorithm1(m2, queues, Alg1Options{Objective: ObjMeanTime, K: 3, GridN: 1 << 11})
	if err != nil {
		t.Fatal(err)
	}
	s := solver2(t, m2, 30, 1<<12, 120)
	want, err := Optimize2(s, 20, 4, ObjMeanTime, Options2{})
	if err != nil {
		t.Fatal(err)
	}
	if d := p[0][1] - want.L12; d > 2 || d < -2 {
		t.Fatalf("Algorithm 1 shipped %d, exact optimum %d", p[0][1], want.L12)
	}
}

func TestAlgorithm1Validation(t *testing.T) {
	m := fiveServer(dist.FamilyExponential, 1, true)
	if _, err := Algorithm1(m, []int{1, 2}, Alg1Options{}); err == nil {
		t.Fatal("queue length mismatch should error")
	}
}

func TestAllocationEvaluatorAgainstSim(t *testing.T) {
	m := fiveServer(dist.FamilyPareto1, 1, false)
	ev, err := NewAllocationEvaluator(m, 60, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	alloc := []int{10, 10, 10, 15, 15}
	got, err := ev.Evaluate(alloc)
	if err != nil {
		t.Fatal(err)
	}
	// QoS needs a deadline, which the search never has: read it from the
	// evaluator's solver as Evaluate does the rest.
	b, err := ev.sv.Bounds(direct.Point{Initial: alloc, Policy: ev.stay}, 100)
	if err != nil {
		t.Fatal(err)
	}
	est, err := sim.Estimate(m, alloc, core.NewPolicy(5), sim.Options{Reps: 20000, Seed: 9, Deadline: 100})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Reliability-est.Reliability) > 3*est.ReliabilityHalf+0.005 {
		t.Fatalf("allocation reliability %g vs sim %g ± %g", got.Reliability, est.Reliability, est.ReliabilityHalf)
	}
	if got := b.Optimistic.QoS; math.Abs(got-est.QoS) > 3*est.QoSHalf+0.005 {
		t.Fatalf("allocation QoS %g vs sim %g ± %g", got, est.QoS, est.QoSHalf)
	}
}

func TestAllocationEvaluatorMean(t *testing.T) {
	m := fiveServer(dist.FamilyExponential, 1, true)
	ev, err := NewAllocationEvaluator(m, 40, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	// All work on the fastest server: mean = 20 × 1 s.
	got, err := ev.Evaluate([]int{0, 0, 0, 0, 20})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Mean-20) > 0.3 {
		t.Fatalf("single-server mean: %g, want ~20", got.Mean)
	}
	if !math.IsNaN(got.QoS) {
		t.Fatal("QoS without deadline should be NaN")
	}
}

// TestBalancedAllocationIsOptimalOnHomogeneousFleet: with i.i.d.
// exponential servers and no transfer cost the completion time
// E[max_k Erlang(a_k)] is minimized by the balanced assignment
// (Behrouzi-Far and Soljanin's redundancy-free anchor): every single-task
// move away from it must raise the analytic mean, and the search must
// stay there.
func TestBalancedAllocationIsOptimalOnHomogeneousFleet(t *testing.T) {
	m := &core.Model{
		Service:  []dist.Dist{dist.NewExponential(1), dist.NewExponential(1), dist.NewExponential(1)},
		Failure:  []dist.Dist{dist.Never{}, dist.Never{}, dist.Never{}},
		Transfer: func(tasks, src, dst int) dist.Dist { return dist.NewDeterministic(0) },
	}
	ev, err := NewAllocationEvaluator(m, 18, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	balanced, err := ev.Evaluate([]int{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	// E[max of three Erlang(4, 1)] by numerical integration of 1 − F³.
	testutil.Almost(t, balanced.Mean, 5.730673, 1e-3, "balanced mean vs closed form")
	for from := 0; from < 3; from++ {
		for to := 0; to < 3; to++ {
			if from == to {
				continue
			}
			alloc := []int{4, 4, 4}
			alloc[from]--
			alloc[to]++
			moved, err := ev.Evaluate(alloc)
			if err != nil {
				t.Fatal(err)
			}
			if moved.Mean <= balanced.Mean {
				t.Errorf("allocation %v has mean %g, balanced %g", alloc, moved.Mean, balanced.Mean)
			}
		}
	}
	best, val, err := SearchBestAllocation(ev, 12, ObjMeanTime, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(best, []int{4, 4, 4}) || val != balanced.Mean {
		t.Errorf("search settled on %v at %g, want the balanced allocation at %g", best, val, balanced.Mean)
	}
}

func TestSearchBestAllocationImprovesOnProportional(t *testing.T) {
	m := fiveServer(dist.FamilyPareto1, 1, false)
	ev, err := NewAllocationEvaluator(m, 120, 1<<11)
	if err != nil {
		t.Fatal(err)
	}
	best, val, err := SearchBestAllocation(ev, 60, ObjReliability, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range best {
		total += b
	}
	if total != 60 {
		t.Fatalf("allocation does not conserve tasks: %v", best)
	}
	if val <= 0 || val > 1 {
		t.Fatalf("reliability out of range: %g", val)
	}
	// The found allocation should not be worse than any single-server dump.
	dump, err := ev.Evaluate([]int{60, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if val < dump.Reliability {
		t.Fatalf("search (%g) worse than dumping on slowest server (%g)", val, dump.Reliability)
	}
}

func TestSearchBestAllocationValidation(t *testing.T) {
	m := fiveServer(dist.FamilyExponential, 1, true)
	ev, _ := NewAllocationEvaluator(m, 20, 1<<10)
	if _, _, err := SearchBestAllocation(ev, -1, ObjMeanTime, 1, 1); err == nil {
		t.Fatal("negative workload should error")
	}
	if _, _, err := SearchBestAllocation(ev, 10, ObjQoS, 1, 1); err == nil {
		t.Fatal("QoS should error: the search has no deadline")
	}
}
