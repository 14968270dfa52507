package dtr_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"dtr"
	"dtr/dist"
)

// paperModel builds the canonical two-server model of the paper's
// evaluation under the Pareto-1 family with low network delay.
func paperModel(reliable bool) *dtr.Model {
	fail := func(mean float64) dist.Dist {
		if reliable {
			return dist.Never{}
		}
		return dist.NewExponential(mean)
	}
	return &dtr.Model{
		Service: []dist.Dist{dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1)},
		Failure: []dist.Dist{fail(1000), fail(500)},
		Transfer: func(tasks, src, dst int) dist.Dist {
			if tasks < 1 {
				tasks = 1
			}
			return dist.NewPareto(2.5, float64(tasks))
		},
	}
}

func TestSystemMetricsRoundTrip(t *testing.T) {
	sys, err := dtr.NewSystem(paperModel(true), []int{20, 10})
	if err != nil {
		t.Fatal(err)
	}
	sys.GridN = 1 << 12

	mean, err := sys.MeanTime(dtr.Policy2(5, 0))
	if err != nil {
		t.Fatal(err)
	}
	if mean <= 0 {
		t.Fatalf("mean %g", mean)
	}
	q, err := sys.QoS(dtr.Policy2(5, 0), 2*mean)
	if err != nil {
		t.Fatal(err)
	}
	if q < 0.5 || q > 1 {
		t.Fatalf("QoS at twice the mean should be high, got %g", q)
	}
	rel, err := sys.Reliability(dtr.Policy2(5, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rel != 1 {
		t.Fatalf("reliable system reliability %g", rel)
	}
}

func TestSystemOptimalPolicies(t *testing.T) {
	sys, err := dtr.NewSystem(paperModel(true), []int{20, 10})
	if err != nil {
		t.Fatal(err)
	}
	sys.GridN = 1 << 12
	pol, best, err := sys.OptimalMeanPolicy()
	if err != nil {
		t.Fatal(err)
	}
	// The optimum must not be worse than obvious alternatives.
	for _, alt := range []dtr.Policy{dtr.Policy2(0, 0), dtr.Policy2(10, 0), dtr.Policy2(0, 10)} {
		v, err := sys.MeanTime(alt)
		if err != nil {
			t.Fatal(err)
		}
		if best > v+1e-9 {
			t.Fatalf("optimal %g worse than %v at %g", best, alt, v)
		}
	}
	if err := pol.Validate([]int{20, 10}); err != nil {
		t.Fatal(err)
	}

	polQ, bestQ, err := sys.OptimalQoSPolicy(40)
	if err != nil {
		t.Fatal(err)
	}
	if bestQ <= 0 || bestQ > 1 {
		t.Fatalf("QoS optimum %g", bestQ)
	}
	if err := polQ.Validate([]int{20, 10}); err != nil {
		t.Fatal(err)
	}
}

func TestSystemReliabilityPolicy(t *testing.T) {
	sys, err := dtr.NewSystem(paperModel(false), []int{20, 10})
	if err != nil {
		t.Fatal(err)
	}
	sys.GridN = 1 << 12
	pol, best, err := sys.OptimalReliabilityPolicy()
	if err != nil {
		t.Fatal(err)
	}
	if best <= 0 || best > 1 {
		t.Fatalf("reliability optimum %g", best)
	}
	got, err := sys.Reliability(pol)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-best) > 1e-9 {
		t.Fatalf("re-evaluated optimum %g vs %g", got, best)
	}
}

func TestSystemSimulateAgreesWithAnalytic(t *testing.T) {
	sys, err := dtr.NewSystem(paperModel(false), []int{20, 10})
	if err != nil {
		t.Fatal(err)
	}
	sys.GridN = 1 << 12
	p := dtr.Policy2(4, 1)
	want, err := sys.Reliability(p)
	if err != nil {
		t.Fatal(err)
	}
	est, err := sys.Simulate(p, dtr.SimOptions{Reps: 8000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Reliability-want) > 3*est.ReliabilityHalf+0.01 {
		t.Fatalf("sim %g ± %g vs analytic %g", est.Reliability, est.ReliabilityHalf, want)
	}
}

func TestRegenSolverPublicPath(t *testing.T) {
	m := paperModel(true)
	sv, err := dtr.NewRegenSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	sv.Step = 0.05
	sv.Horizon = 60
	st, err := dtr.NewState(m, []int{2, 1}, dtr.Policy2(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	mean, err := sv.MeanTime(st)
	if err != nil {
		t.Fatal(err)
	}
	sys, _ := dtr.NewSystem(m, []int{2, 1})
	sys.GridN = 1 << 12
	sys.Horizon = 60
	want, err := sys.MeanTime(dtr.Policy2(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-want) > 0.03*(1+want) {
		t.Fatalf("regeneration solver %g vs convolution solver %g", mean, want)
	}
}

// TestRegenSolverRetryAfterMaxStates: a blown memo budget must leave the
// solver usable — lifting MaxStates and asking again returns exactly what
// a fresh solver returns. (The former two-server copy left a NaN
// reservation behind on the error path and answered NaN, nil.)
func TestRegenSolverRetryAfterMaxStates(t *testing.T) {
	m := paperModel(true)
	st, err := dtr.NewState(m, []int{2, 1}, dtr.Policy2(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	solver := func() *dtr.RegenSolver {
		sv, err := dtr.NewRegenSolver(m)
		if err != nil {
			t.Fatal(err)
		}
		sv.Step, sv.Horizon = 0.1, 60
		return sv
	}
	want, err := solver().MeanTime(st)
	if err != nil {
		t.Fatal(err)
	}
	sv := solver()
	sv.MaxStates = 50
	if _, err := sv.MeanTime(st); err == nil {
		t.Fatal("MaxStates = 50 should trip")
	}
	sv.MaxStates = 0
	got, err := sv.MeanTime(st)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("retry after a MaxStates trip = %v, fresh solver = %v", got, want)
	}
}

// TestRegenSolverThreeServers: the regeneration solver takes any number
// of servers. One exponential task per server, no transfers:
// E[max] by inclusion–exclusion.
func TestRegenSolverThreeServers(t *testing.T) {
	m := &dtr.Model{
		Service: []dist.Dist{dist.NewExponential(1.5), dist.NewExponential(1), dist.NewExponential(0.5)},
		Failure: []dist.Dist{dist.Never{}, dist.Never{}, dist.Never{}},
		Transfer: func(tasks, src, dst int) dist.Dist {
			return dist.NewExponential(0.6 * float64(tasks))
		},
	}
	sv, err := dtr.NewRegenSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	sv.Step = 0.02
	st, err := dtr.NewState(m, []int{1, 1, 1}, dtr.NewPolicy(3))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sv.MeanTime(st)
	if err != nil {
		t.Fatal(err)
	}
	l1, l2, l3 := 1/1.5, 1.0, 2.0
	want := 1/l1 + 1/l2 + 1/l3 -
		1/(l1+l2) - 1/(l1+l3) - 1/(l2+l3) +
		1/(l1+l2+l3)
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("3-server E[max] = %g, inclusion–exclusion %g", got, want)
	}
}

func TestMultiServerPath(t *testing.T) {
	m := &dtr.Model{
		Service: []dist.Dist{
			dist.NewPareto(2.5, 3), dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1),
		},
		Failure: []dist.Dist{dist.Never{}, dist.Never{}, dist.Never{}},
		Transfer: func(tasks, src, dst int) dist.Dist {
			if tasks < 1 {
				tasks = 1
			}
			return dist.NewExponential(0.5 * float64(tasks))
		},
	}
	sys, err := dtr.NewSystem(m, []int{30, 10, 5})
	if err != nil {
		t.Fatal(err)
	}
	converging := dtr.NewPolicy(3)
	converging[0][2], converging[1][2] = 4, 2
	if _, err := sys.MeanTime(converging); err == nil || !strings.Contains(err.Error(), "server 2") {
		t.Fatalf("two groups into server 2 have no exact mean; got %v", err)
	}
	if b, err := sys.MetricBounds(converging, 0); err != nil || b.Exact || !(b.Optimistic.Mean < b.Pessimistic.Mean) {
		t.Fatalf("bounds of the converging policy: %+v, %v", b, err)
	}
	stay, err := sys.MeanTime(dtr.NewPolicy(3))
	if err != nil {
		t.Fatal(err)
	}
	pol, err := sys.Algorithm1(dtr.Alg1Config{Objective: dtr.ObjMeanTime, K: 2, GridN: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	withPol, err := sys.Simulate(pol, dtr.SimOptions{Reps: 1500, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	noPol, err := sys.Simulate(dtr.NewPolicy(3), dtr.SimOptions{Reps: 1500, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if withPol.MeanTime >= noPol.MeanTime {
		t.Fatalf("Algorithm 1 (%.2f) should beat no reallocation (%.2f)", withPol.MeanTime, noPol.MeanTime)
	}
	if math.Abs(stay-noPol.MeanTime) > 3*noPol.MeanTimeHalf {
		t.Fatalf("analytic no-reallocation mean %.2f outside the simulated %.2f ± %.2f", stay, noPol.MeanTime, noPol.MeanTimeHalf)
	}
}

// TestMetricBoundsDefaultGrid: System.GridN documents "zero picks 8192",
// and MetricBounds honours it like every other analytic method (it ran at
// a 4096-point default of its own while it had its own solver).
func TestMetricBoundsDefaultGrid(t *testing.T) {
	m := &dtr.Model{
		Service: []dist.Dist{dist.NewPareto(2.5, 3), dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1)},
		Failure: []dist.Dist{dist.Never{}, dist.Never{}, dist.Never{}},
		Transfer: func(tasks, src, dst int) dist.Dist {
			return dist.NewExponential(0.5 * float64(max(tasks, 1)))
		},
	}
	p := dtr.NewPolicy(3)
	p[0][2], p[1][2] = 4, 2
	var got [2]dtr.MetricBounds
	for i, grid := range []int{0, 8192} {
		sys, err := dtr.NewSystem(m, []int{12, 6, 3})
		if err != nil {
			t.Fatal(err)
		}
		sys.GridN = grid
		if got[i], err = sys.MetricBounds(p, 30); err != nil {
			t.Fatal(err)
		}
	}
	if got[0] != got[1] || got[0].Exact || math.IsNaN(got[0].Optimistic.Mean) {
		t.Fatalf("GridN 0: %+v\nGridN 8192: %+v", got[0], got[1])
	}
}

func TestFitDistributionsPublicPath(t *testing.T) {
	tb := dtr.NewTestbed(paperModel(true), 50*time.Microsecond, 6)
	out, err := tb.Run([]int{8, 4}, dtr.Policy2(2, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatal("reliable testbed run must complete")
	}
	// Collect more server-1 service samples by pooling a few runs.
	samples := out.ServiceSamples[0]
	for i := 1; i < 40; i++ {
		o, err := tb.Run([]int{8, 4}, dtr.Policy2(2, 0), i)
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, o.ServiceSamples[0]...)
	}
	fits := dtr.FitDistributions(samples, 40)
	if len(fits) == 0 {
		t.Fatal("no fits")
	}
	h := dtr.NewHistogram(samples, 20)
	if len(h.Density) != 20 {
		t.Fatal("histogram bins")
	}
}

// TestFitDistributionsDegenerateInput: an empty sample and bins < 1 are
// answered with no fits — the function has no error return and used to
// panic from inside the histogram — as is a sample that cannot be a delay
// sample because an observation is not positive.
func TestFitDistributionsDegenerateInput(t *testing.T) {
	xs := []float64{1.5, 2, 2.5, 3, 4, 6, 9}
	for name, fits := range map[string][]dtr.Fit{
		"empty sample":             dtr.FitDistributions(nil, 60),
		"zero bins":                dtr.FitDistributions(xs, 0),
		"negative bins":            dtr.FitDistributions(xs, -3),
		"non-positive observation": dtr.FitDistributions(append([]float64{0}, xs...), 10),
	} {
		if len(fits) != 0 {
			t.Errorf("%s: %d fits, want none", name, len(fits))
		}
	}
	fits := dtr.FitDistributions(xs, 3)
	if len(fits) == 0 || fits[0].Name == "" || fits[0].Dist == nil || fits[0].Params < 1 {
		t.Errorf("a proper sample got %+v", fits)
	}
}

func TestMetricBoundsPublicPath(t *testing.T) {
	m := &dtr.Model{
		Service: []dist.Dist{
			dist.NewPareto(2.5, 3), dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1),
		},
		Failure: []dist.Dist{dist.Never{}, dist.Never{}, dist.Never{}},
		Transfer: func(tasks, src, dst int) dist.Dist {
			if tasks < 1 {
				tasks = 1
			}
			return dist.NewExponential(float64(tasks))
		},
	}
	sys, err := dtr.NewSystem(m, []int{10, 6, 2})
	if err != nil {
		t.Fatal(err)
	}
	sys.GridN = 1 << 12
	p := dtr.NewPolicy(3)
	p[0][2] = 3
	p[1][2] = 2
	b, err := sys.MetricBounds(p, 40)
	if err != nil {
		t.Fatal(err)
	}
	if b.Exact {
		t.Fatal("two groups to one server should not be exact")
	}
	if b.Optimistic.Mean > b.Pessimistic.Mean {
		t.Fatalf("bounds inverted: %g > %g", b.Optimistic.Mean, b.Pessimistic.Mean)
	}
	est, err := sys.Simulate(p, dtr.SimOptions{Reps: 6000, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	slack := 3 * est.MeanTimeHalf
	if est.MeanTime < b.Optimistic.Mean-slack || est.MeanTime > b.Pessimistic.Mean+slack {
		t.Fatalf("simulated %g outside bounds [%g, %g]", est.MeanTime, b.Optimistic.Mean, b.Pessimistic.Mean)
	}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := dtr.NewSystem(&dtr.Model{}, nil); err == nil {
		t.Fatal("empty model should fail")
	}
	if _, err := dtr.NewSystem(paperModel(true), []int{1}); err == nil {
		t.Fatal("wrong allocation length should fail")
	}
	if _, err := dtr.NewSystem(paperModel(true), []int{-1, 1}); err == nil {
		t.Fatal("negative allocation should fail")
	}
	sys, _ := dtr.NewSystem(paperModel(true), []int{5, 5})
	if _, err := sys.MeanTime(dtr.Policy2(9, 0)); err == nil {
		t.Fatal("overdrawn policy should fail")
	}
}

func TestCompletionCDFPublicPath(t *testing.T) {
	sys, err := dtr.NewSystem(paperModel(false), []int{12, 6})
	if err != nil {
		t.Fatal(err)
	}
	sys.GridN = 1 << 12
	p := dtr.Policy2(3, 0)
	cdf, err := sys.CompletionCDF(p)
	if err != nil {
		t.Fatal(err)
	}
	if cdf(-1) != 0 {
		t.Fatal("CDF before 0 should be 0")
	}
	q, err := sys.QoS(p, 20)
	if err != nil {
		t.Fatal(err)
	}
	// The callable interpolates between lattice points while QoS sums
	// exactly at them, so agreement is to one lattice cell.
	if d := cdf(20) - q; d > 5e-3 || d < -5e-3 {
		t.Fatalf("CDF(20)=%g vs QoS %g", cdf(20), q)
	}
	rel, err := sys.Reliability(p)
	if err != nil {
		t.Fatal(err)
	}
	if d := cdf(1e9) - rel; d > 1e-6 || d < -1e-6 {
		t.Fatalf("CDF(inf)=%g vs reliability %g", cdf(1e9), rel)
	}
	prev := 0.0
	for x := 0.0; x < 100; x += 5 {
		v := cdf(x)
		if v < prev-1e-12 {
			t.Fatal("public CDF not monotone")
		}
		prev = v
	}
	// Times far beyond the grid must clamp to the last lattice value:
	// int(t/dx) overflows for t this large if converted before the
	// range check (dtrplan's auto-tmax probe evaluates cdf(1e18)).
	if v := cdf(1e18); v != cdf(1e9) {
		t.Fatalf("CDF(1e18)=%g, want the saturated value %g", v, cdf(1e9))
	}
}

func TestSystemAccessorsAndStateSim(t *testing.T) {
	m := paperModel(false)
	sys, err := dtr.NewSystem(m, []int{8, 4})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Model() != m {
		t.Fatal("Model accessor")
	}
	init := sys.Initial()
	init[0] = 99 // must be a copy
	if sys.Initial()[0] == 99 {
		t.Fatal("Initial must return a copy")
	}

	// SimulateState runs from an arbitrary aged configuration.
	st, err := dtr.NewState(m, []int{8, 4}, dtr.Policy2(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	st.AgeW[0] = 0.5
	est, err := dtr.SimulateState(m, st, dtr.SimOptions{Reps: 500, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if est.Reliability < 0 || est.Reliability > 1 {
		t.Fatalf("reliability %g", est.Reliability)
	}
}

func TestMultiServerOptimizeFallsBackToAlgorithm1(t *testing.T) {
	m := &dtr.Model{
		Service: []dist.Dist{
			dist.NewExponential(2), dist.NewExponential(1), dist.NewExponential(0.5),
		},
		Failure: []dist.Dist{dist.Never{}, dist.Never{}, dist.Never{}},
		Transfer: func(tasks, src, dst int) dist.Dist {
			if tasks < 1 {
				tasks = 1
			}
			return dist.NewExponential(0.2 * float64(tasks))
		},
	}
	sys, err := dtr.NewSystem(m, []int{20, 5, 2})
	if err != nil {
		t.Fatal(err)
	}
	sys.GridN = 1 << 10
	pol, _, err := sys.OptimalMeanPolicy()
	if err != nil {
		t.Fatal(err)
	}
	if err := pol.Validate([]int{20, 5, 2}); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := range pol {
		for _, l := range pol[i] {
			moved += l
		}
	}
	if moved == 0 {
		t.Fatal("multi-server optimization should move tasks off the slow server")
	}
}

// TestMetricBoundsDeadlines: a NaN deadline is refused, as QoS refuses
// it, where it once reached the lattice as an index; one far past the
// horizon reads the curve's last point, and so does CompletionCDF's F at
// NaN, which once indexed the curve at int(NaN).
func TestMetricBoundsDeadlines(t *testing.T) {
	sys, _ := dtr.NewSystem(paperModel(true), []int{4, 2})
	sys.GridN = 1 << 10
	if _, err := sys.MetricBounds(dtr.Policy2(1, 0), math.NaN()); err == nil {
		t.Fatal("NaN deadline should fail")
	}
	b, err := sys.MetricBounds(dtr.Policy2(1, 0), 1e300)
	if err != nil {
		t.Fatal(err)
	}
	if q := b.Optimistic.QoS; !(q > 0.99 && q <= 1) {
		t.Fatalf("QoS at deadline 1e300 = %v, want the curve's limit", q)
	}
	f, err := sys.CompletionCDF(dtr.Policy2(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := f(math.NaN()), f(math.Inf(1)); got != want {
		t.Fatalf("F(NaN) = %v, want the curve's last point %v", got, want)
	}
}

func TestQoSErrorPaths(t *testing.T) {
	sys, _ := dtr.NewSystem(paperModel(false), []int{4, 2})
	sys.GridN = 1 << 10
	if _, err := sys.QoS(dtr.Policy2(0, 0), -1); err == nil {
		t.Fatal("negative deadline should fail")
	}
	if _, err := sys.Reliability(dtr.Policy2(9, 0)); err == nil {
		t.Fatal("overdrawn policy should fail")
	}
	if _, err := sys.CompletionCDF(dtr.Policy2(9, 0)); err == nil {
		t.Fatal("overdrawn policy should fail in CDF")
	}
}

// TestOptimizeReplicatedHonoursDeclaredFactors: with nothing to search
// over (MaxFactor 0 or 1), OptimizeReplicated is the plain optimizer — on
// a model that declares a min-of-3 law too, whose factors it reports
// instead of silently planning for an unreplicated system.
func TestOptimizeReplicatedHonoursDeclaredFactors(t *testing.T) {
	m := paperModel(true)
	m.Repl = []int{1, 3}
	sys, err := dtr.NewSystem(m, []int{12, 6})
	if err != nil {
		t.Fatal(err)
	}
	sys.GridN = 1 << 10
	wantPol, wantVal, err := sys.OptimalMeanPolicy()
	if err != nil {
		t.Fatal(err)
	}
	for _, maxFactor := range []int{0, 1} {
		plan, err := sys.OptimizeReplicated(dtr.ObjMeanTime, 0, dtr.ReplicationConfig{MaxFactor: maxFactor})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := dtr.FormatPolicy(plan.Policy), dtr.FormatPolicy(wantPol); got != want || plan.Value != wantVal {
			t.Errorf("MaxFactor %d: plan %s at %v, plain optimizer %s at %v", maxFactor, got, plan.Value, want, wantVal)
		}
		if len(plan.Factors) != 2 || plan.Factors[0] != 1 || plan.Factors[1] != 3 {
			t.Errorf("MaxFactor %d: factors %v, want the declared [1 3]", maxFactor, plan.Factors)
		}
	}
}
