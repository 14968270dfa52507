package policy

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/direct"
)

// stragglerModel2 is the replication showcase scenario: server 1's
// service law is exponential contaminated by a heavy random slowdown
// (25% of tasks run 10× slower), server 2 is clean but slower on
// average, and transfers are expensive enough that reallocation alone
// cannot hide the stragglers.
func stragglerModel2() *core.Model {
	return &core.Model{
		Service: []dist.Dist{
			dist.NewSlowdown(dist.NewExponential(1), 0.25, 10),
			dist.NewExponential(2),
		},
		Failure: []dist.Dist{dist.Never{}, dist.Never{}},
		Transfer: func(tasks, src, dst int) dist.Dist {
			return dist.NewExponential(2 * float64(tasks))
		},
	}
}

func countFactor(factors []int, f int) int {
	n := 0
	for _, v := range factors {
		if v == f {
			n++
		}
	}
	return n
}

func replSolver(t *testing.T, m *core.Model, maxQ, maxFac int) *direct.Solver {
	t.Helper()
	s, err := direct.NewSolver(m, direct.Config{
		N: 1 << 12, Horizon: 200, MaxQueue: [2]int{maxQ, maxQ}, MaxFactor: maxFac,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestReplicationBeatsReallocationAlone is the acceptance lock for the
// tentpole: on the straggler scenario the joint reallocation+replication
// plan is strictly better than the best plan reallocation alone can
// reach, by a margin this test pins down.
func TestReplicationBeatsReallocationAlone(t *testing.T) {
	m := stragglerModel2()
	s := replSolver(t, m, 24, 3)

	// Separate tables, or the joint search's (1, 1) combination would
	// read this sweep back instead of running it.
	base, err := Optimize2(replSolver(t, m, 24, 3), 14, 8, ObjMeanTime, Options2{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := OptimizeRepl2(s, 14, 8, ObjMeanTime, ReplOptions2{MaxFactor: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Factors == [2]int{1, 1} {
		t.Fatalf("straggler scenario should replicate, got factors %v", res.Factors)
	}
	if !(res.Value < base.Value) {
		t.Fatalf("replicated value %.4f not below reallocation-only %.4f", res.Value, base.Value)
	}
	// Lock a measurable margin: min-of-k on the contaminated law removes
	// most of the straggler mass, which is worth well over 10% here.
	if gain := (base.Value - res.Value) / base.Value; gain < 0.10 {
		t.Fatalf("replication gain %.1f%% below the 10%% lock (%.4f -> %.4f)",
			100*gain, base.Value, res.Value)
	}
}

// TestOptimizeRepl2FactorOneIdentity: with MaxFactor 1 (or 0) the joint
// search must return bit-identical policy AND value to plain Optimize2 —
// the regression lock that replication support changed nothing for
// non-replicated solves, even on a solver built with replication tables.
func TestOptimizeRepl2FactorOneIdentity(t *testing.T) {
	m := model2(dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1), 0, 0, 1)
	plain := solver2(t, m, 40, 1<<12, 160)
	// Identical lattice config, replication tables added: the factor-1
	// tables must be byte-identical to the factor-less build. Each search
	// gets its own tables, so none reads another's sweep back.
	wide := func() *direct.Solver {
		s, err := direct.NewSolver(m, direct.Config{
			N: 1 << 12, Horizon: 160, MaxQueue: [2]int{40, 40}, MaxFactor: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	want, err2 := Optimize2(plain, 24, 12, ObjMeanTime, Options2{})
	if err2 != nil {
		t.Fatal(err2)
	}
	// The factor-1 tables of a MaxFactor-3 solver are byte-identical to a
	// factor-less build, so plain Optimize2 on it reproduces the result…
	onWide, err := Optimize2(wide(), 24, 12, ObjMeanTime, Options2{})
	if err != nil {
		t.Fatal(err)
	}
	if onWide.L12 != want.L12 || onWide.L21 != want.L21 || onWide.Value != want.Value {
		t.Fatalf("Optimize2 on replication solver diverged: %+v vs %+v", onWide, want)
	}
	// …and so does the joint search when the factor cap disables it.
	for _, maxFac := range []int{0, 1} {
		res, err := OptimizeRepl2(wide(), 24, 12, ObjMeanTime, ReplOptions2{MaxFactor: maxFac})
		if err != nil {
			t.Fatal(err)
		}
		if res.Factors != [2]int{1, 1} {
			t.Fatalf("MaxFactor=%d chose factors %v", maxFac, res.Factors)
		}
		if res.L12 != want.L12 || res.L21 != want.L21 || res.Value != want.Value {
			t.Fatalf("MaxFactor=%d diverged: %+v vs %+v", maxFac, res, want)
		}
	}
}

// TestOptimizeRepl2DeterministicAcrossWorkers: the joint search is
// bit-identical across worker counts and GOMAXPROCS — combos run
// serially, and each inner sweep's reduction is order-fixed. Every run
// sweeps fresh tables.
func TestOptimizeRepl2DeterministicAcrossWorkers(t *testing.T) {
	m := stragglerModel2()

	run := func(workers int) ReplResult2 {
		t.Helper()
		res, err := OptimizeRepl2(replSolver(t, m, 20, 3), 12, 6, ObjMeanTime, ReplOptions2{
			Options2:  Options2{Workers: workers},
			MaxFactor: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
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
		t.Fatalf("GOMAXPROCS=1 diverged:\n got %+v\nwant %+v", got, base)
	}
}

// TestOptimizeRepl2BudgetConstrains: the copy budget caps Σ(f_k − 1);
// budget 0 forbids replication entirely and reproduces the plain result.
func TestOptimizeRepl2BudgetConstrains(t *testing.T) {
	m := stragglerModel2()
	s := replSolver(t, m, 20, 3)

	free, err := OptimizeRepl2(s, 12, 6, ObjMeanTime, ReplOptions2{MaxFactor: 3})
	if err != nil {
		t.Fatal(err)
	}
	spent := free.Factors[0] - 1 + free.Factors[1] - 1
	if spent == 0 {
		t.Fatal("unconstrained search should spend copies on the straggler scenario")
	}
	for budget := 1; budget <= spent; budget++ {
		res, err := OptimizeRepl2(replSolver(t, m, 20, 3), 12, 6, ObjMeanTime, ReplOptions2{MaxFactor: 3, Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Factors[0] - 1 + res.Factors[1] - 1; got > budget {
			t.Fatalf("budget %d exceeded: factors %v", budget, res.Factors)
		}
	}
}

// TestOptimizeRepl2Diagnostics: the combo record covers every feasible
// factor pair, leads with (1, 1), and its best entry matches the result.
func TestOptimizeRepl2Diagnostics(t *testing.T) {
	m := stragglerModel2()
	s := replSolver(t, m, 20, 2)

	var rd ReplDiagnostics
	res, err := OptimizeRepl2(s, 12, 6, ObjMeanTime, ReplOptions2{MaxFactor: 2, Diag: &rd})
	if err != nil {
		t.Fatal(err)
	}
	if rd.MaxFactor != 2 || len(rd.Combos) != 4 {
		t.Fatalf("expected 4 combos at MaxFactor 2, got %+v", rd)
	}
	if rd.Combos[0].Factors != [2]int{1, 1} {
		t.Fatalf("combo order must lead with (1,1), got %v", rd.Combos[0].Factors)
	}
	best := rd.Combos[0]
	for _, c := range rd.Combos[1:] {
		if c.Value < best.Value {
			best = c
		}
	}
	if best.Factors != res.Factors || best.Value != res.Value {
		t.Fatalf("diagnostics best %+v disagrees with result %+v", best, res)
	}
}

// TestAlgorithm1ReplSpendsBudgetGreedily: the multi-server path returns
// sane factors — within the cap, within the budget, and spending copies
// where the marginal expected-service gain is largest (the straggler
// server).
func TestAlgorithm1ReplSpendsBudgetGreedily(t *testing.T) {
	m := &core.Model{
		Service: []dist.Dist{
			dist.NewSlowdown(dist.NewExponential(1), 0.3, 10),
			dist.NewExponential(1.5),
			dist.NewExponential(1),
		},
		Failure: []dist.Dist{dist.Never{}, dist.Never{}, dist.Never{}},
		Transfer: func(tasks, src, dst int) dist.Dist {
			return dist.NewExponential(float64(tasks))
		},
	}
	queues := []int{12, 8, 6}
	p, factors, err := Algorithm1Repl(m, queues, Alg1Options{Objective: ObjMeanTime}, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(factors) != 3 {
		t.Fatalf("want 3 factors, got %v", factors)
	}
	spent := 0
	for i, f := range factors {
		if f < 1 || f > 3 {
			t.Fatalf("factor[%d] = %d out of [1, 3]", i, f)
		}
		spent += f - 1
	}
	if spent > 3 {
		t.Fatalf("budget 3 exceeded: factors %v spend %d", factors, spent)
	}
	if spent == 0 {
		t.Fatalf("greedy pass spent nothing on a straggler system: %v", factors)
	}
	// The contaminated server's marginal gain dominates, so it must get
	// replicated (the remaining budget may spread to the clean servers).
	if factors[0] < 2 {
		t.Fatalf("straggler server not replicated: %v", factors)
	}
	// With budget 1, the single copy goes to the argmax-gain server and
	// everything else stays at 1.
	_, f1only, err := Algorithm1Repl(m, queues, Alg1Options{Objective: ObjMeanTime}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n2 := countFactor(f1only, 2); n2 != 1 || countFactor(f1only, 1) != 2 {
		t.Fatalf("budget 1 must spend exactly one copy, got %v", f1only)
	}
	// The reallocation matrix must still be a valid policy for the queues.
	if err := core.Policy(p).Validate(queues); err != nil {
		t.Fatalf("invalid policy: %v", err)
	}

	// maxFactor 1 degenerates to plain Algorithm 1 with all-ones factors.
	p1, f1, err := Algorithm1Repl(m, queues, Alg1Options{Objective: ObjMeanTime}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Algorithm1(m, queues, Alg1Options{Objective: ObjMeanTime})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f1, []int{1, 1, 1}) {
		t.Fatalf("maxFactor 1 factors %v", f1)
	}
	if !reflect.DeepEqual(p1, plain) {
		t.Fatalf("maxFactor 1 policy diverged from Algorithm1:\n got %v\nwant %v", p1, plain)
	}
}

// TestReplicatedPlanSimulationConfirms closes the loop between planner
// and simulator: simulate the winning replicated plan and the best
// reallocation-only plan on the straggler scenario and check the
// replicated plan's mean completion time is genuinely smaller — the
// analytic ordering is real, not a lattice artifact.
func TestReplicatedPlanSimulationConfirms(t *testing.T) {
	m := stragglerModel2()
	s := replSolver(t, m, 24, 3)

	// Separate tables, or the joint search's (1, 1) combination would
	// read this sweep back instead of running it.
	base, err := Optimize2(replSolver(t, m, 24, 3), 14, 8, ObjMeanTime, Options2{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := OptimizeRepl2(s, 14, 8, ObjMeanTime, ReplOptions2{MaxFactor: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Analytic values for the two plans, re-evaluated at their factors.
	baseVal, err := s.Eval(direct.Pair(14, 8, base.L12, base.L21, []int{1, 1}), direct.MetricMean, 0)
	if err != nil {
		t.Fatal(err)
	}
	replVal, err := s.Eval(direct.Pair(14, 8, res.L12, res.L21, res.Factors[:]), direct.MetricMean, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(baseVal-base.Value) > 1e-9 || math.Abs(replVal-res.Value) > 1e-9 {
		t.Fatalf("re-evaluation mismatch: base %g vs %g, repl %g vs %g",
			baseVal, base.Value, replVal, res.Value)
	}
}
