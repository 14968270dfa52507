package sim

import (
	"math"
	"reflect"
	"testing"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/direct"
	"dtr/internal/markov"
	"dtr/internal/rngutil"
)

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

func TestRunConservesTasks(t *testing.T) {
	m := model2(dist.NewExponential(1), dist.NewExponential(2), 0, 0, 1)
	s, _ := core.NewState(m, []int{5, 3}, core.Policy2(2, 1))
	r := rngutil.Stream(1, 0)
	for i := 0; i < 200; i++ {
		o := Run(m, s, r)
		if !o.Completed {
			t.Fatal("reliable system must complete")
		}
		if o.Served[0]+o.Served[1] != 8 {
			t.Fatalf("served %v, want total 8", o.Served)
		}
		if o.Time <= 0 {
			t.Fatalf("non-positive completion time %g", o.Time)
		}
	}
}

func TestRunEmptyWorkload(t *testing.T) {
	m := model2(dist.NewExponential(1), dist.NewExponential(1), 0, 0, 1)
	s, _ := core.NewState(m, []int{0, 0}, core.Policy2(0, 0))
	o := Run(m, s, rngutil.Stream(2, 0))
	if !o.Completed || o.Time != 0 {
		t.Fatalf("empty workload: %+v", o)
	}
}

func TestRunDoomedByEarlyFailure(t *testing.T) {
	// Failure at t=0.1 deterministic, service takes 10: never completes.
	m := &core.Model{
		Service: []dist.Dist{dist.NewDeterministic(10), dist.NewDeterministic(10)},
		Failure: []dist.Dist{dist.NewDeterministic(0.1), dist.Never{}},
		Transfer: func(tasks, src, dst int) dist.Dist {
			return dist.NewDeterministic(1)
		},
	}
	s, _ := core.NewState(m, []int{1, 0}, core.Policy2(0, 0))
	o := Run(m, s, rngutil.Stream(3, 0))
	if o.Completed {
		t.Fatal("doomed run reported completed")
	}
	if o.FailuresSeen != 1 {
		t.Fatalf("failures seen: %d", o.FailuresSeen)
	}
}

func TestRunGroupToFailedServerDooms(t *testing.T) {
	// Transfer takes 5; destination dies at 1 with no queue: the arrival
	// strands the tasks.
	m := &core.Model{
		Service: []dist.Dist{dist.NewDeterministic(1), dist.NewDeterministic(1)},
		Failure: []dist.Dist{dist.NewDeterministic(1), dist.Never{}},
		Transfer: func(tasks, src, dst int) dist.Dist {
			return dist.NewDeterministic(5)
		},
	}
	s, _ := core.NewState(m, []int{0, 1}, core.Policy2(0, 1))
	o := Run(m, s, rngutil.Stream(4, 0))
	if o.Completed {
		t.Fatal("stranded group should doom the run")
	}
}

func TestEstimateDeterministicUnderSeed(t *testing.T) {
	m := model2(dist.NewPareto(2.5, 1), dist.NewExponential(1), 30, 20, 1)
	a, err := Estimate(m, []int{4, 2}, core.Policy2(1, 0), Options{Reps: 500, Seed: 7, Deadline: 10, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Estimate(m, []int{4, 2}, core.Policy2(1, 0), Options{Reps: 500, Seed: 7, Deadline: 10, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Reliability != b.Reliability || a.MeanTime != b.MeanTime || a.QoS != b.QoS {
		t.Fatalf("estimates depend on worker count: %+v vs %+v", a, b)
	}
}

// TestEstimateAgainstMarkov: the simulator must agree with the exact
// Markov chain within its own confidence intervals.
func TestEstimateAgainstMarkov(t *testing.T) {
	m := model2(dist.NewExponential(2), dist.NewExponential(1), 40, 25, 1)
	mk, err := markov.FromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := core.NewState(m, []int{5, 3}, core.Policy2(2, 1))
	wantRel, _ := mk.Reliability(st)
	wantQoS, _ := mk.QoS(st, 12)

	est, err := Estimate(m, []int{5, 3}, core.Policy2(2, 1), Options{Reps: 20000, Seed: 11, Deadline: 12})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Reliability-wantRel) > 3*est.ReliabilityHalf {
		t.Fatalf("reliability %g ± %g vs exact %g", est.Reliability, est.ReliabilityHalf, wantRel)
	}
	if math.Abs(est.QoS-wantQoS) > 3*est.QoSHalf {
		t.Fatalf("QoS %g ± %g vs exact %g", est.QoS, est.QoSHalf, wantQoS)
	}
}

func TestEstimateMeanAgainstMarkov(t *testing.T) {
	m := model2(dist.NewExponential(2), dist.NewExponential(1), 0, 0, 1)
	mk, _ := markov.FromModel(m)
	st, _ := core.NewState(m, []int{6, 3}, core.Policy2(3, 0))
	want, _ := mk.MeanTime(st)
	est, err := Estimate(m, []int{6, 3}, core.Policy2(3, 0), Options{Reps: 20000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.MeanTime-want) > 3*est.MeanTimeHalf {
		t.Fatalf("mean %g ± %g vs exact %g", est.MeanTime, est.MeanTimeHalf, want)
	}
	if est.Completed != est.Reps {
		t.Fatal("reliable model must complete every run")
	}
}

// TestEstimateAgainstDirectNonMarkovian: simulator vs the convolution
// solver on a Pareto/Uniform scenario (XV-3 in DESIGN.md).
func TestEstimateAgainstDirectNonMarkovian(t *testing.T) {
	m := model2(dist.NewPareto(2.5, 2), dist.NewUniform(0.5, 1.5), 60, 40, 1)
	ds, err := direct.NewSolver(m, direct.Config{N: 1 << 13, Horizon: 120, MaxQueue: [2]int{12, 12}})
	if err != nil {
		t.Fatal(err)
	}
	wantRel, err := ds.Reliability(6, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantQoS, err := ds.QoS(6, 4, 2, 1, 15)
	if err != nil {
		t.Fatal(err)
	}
	est, err := Estimate(m, []int{6, 4}, core.Policy2(2, 1), Options{Reps: 20000, Seed: 17, Deadline: 15})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Reliability-wantRel) > 3*est.ReliabilityHalf {
		t.Fatalf("reliability %g ± %g vs direct %g", est.Reliability, est.ReliabilityHalf, wantRel)
	}
	if math.Abs(est.QoS-wantQoS) > 3*est.QoSHalf {
		t.Fatalf("QoS %g ± %g vs direct %g", est.QoS, est.QoSHalf, wantQoS)
	}
}

// TestFiveServerScenario: the simulator is n-server (Table II's setting).
func TestFiveServerScenario(t *testing.T) {
	service := []dist.Dist{}
	failure := []dist.Dist{}
	for _, mean := range []float64{5, 4, 3, 2, 1} {
		service = append(service, dist.NewPareto(2.5, mean))
		failure = append(failure, dist.Never{})
	}
	m := &core.Model{
		Service: service,
		Failure: failure,
		Transfer: func(tasks, src, dst int) dist.Dist {
			return dist.NewExponential(float64(tasks))
		},
	}
	p := core.NewPolicy(5)
	p[0][4] = 3
	p[0][3] = 2
	p[1][4] = 1
	est, err := Estimate(m, []int{10, 6, 4, 2, 2}, p, Options{Reps: 2000, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if est.Completed != est.Reps {
		t.Fatal("reliable 5-server system must complete")
	}
	if est.MeanTime <= 0 {
		t.Fatalf("mean time %g", est.MeanTime)
	}
}

func TestEstimateValidation(t *testing.T) {
	m := model2(dist.NewExponential(1), dist.NewExponential(1), 0, 0, 1)
	if _, err := Estimate(m, []int{1, 1}, core.Policy2(0, 0), Options{Reps: 0}); err == nil {
		t.Fatal("zero reps should error")
	}
	if _, err := Estimate(m, []int{1, 1}, core.Policy2(5, 0), Options{Reps: 10}); err == nil {
		t.Fatal("invalid policy should error")
	}
}

// TestEstimateRejectsLevel: a confidence level outside (0, 1) made
// negative, infinite or NaN half-widths; it is an error, and 0 still
// selects 0.95.
func TestEstimateRejectsLevel(t *testing.T) {
	m := model2(dist.NewExponential(1), dist.NewExponential(2), 50, 30, 1)
	for _, level := range []float64{-0.2, 1, 1.5, math.NaN()} {
		if est, err := Estimate(m, []int{20, 10}, core.Policy2(5, 2), Options{Reps: 50, Level: level}); err == nil {
			t.Errorf("Level %v: no error, estimates %+v", level, est)
		}
	}
	def, err := Estimate(m, []int{20, 10}, core.Policy2(5, 2), Options{Reps: 50, Deadline: 60})
	if err != nil {
		t.Fatal(err)
	}
	at95, err := Estimate(m, []int{20, 10}, core.Policy2(5, 2), Options{Reps: 50, Deadline: 60, Level: 0.95})
	if err != nil || at95 != def {
		t.Fatalf("Level 0 gave %+v, Level 0.95 %+v (%v)", def, at95, err)
	}
}

func TestAgedInitialStateShortensRun(t *testing.T) {
	// A service clock with age nearly equal to a deterministic service
	// time completes almost immediately.
	m := model2(dist.NewDeterministic(10), dist.NewExponential(1), 0, 0, 1)
	s, _ := core.NewState(m, []int{1, 0}, core.Policy2(0, 0))
	s.AgeW[0] = 9.5
	o := Run(m, s, rngutil.Stream(23, 0))
	if !o.Completed || o.Time > 0.51 || o.Time < 0.49 {
		t.Fatalf("aged deterministic service: %+v", o)
	}
}

// TestAdvancedIdleServersSimulate: State.Advance ages every server's
// service clock, the empty and the down ones too, where the age means
// nothing and may lie past a bounded law's support (Deterministic and
// Uniform panic when aged there). Such a state simulates, and exactly as
// it does with those ages reset to zero.
func TestAdvancedIdleServersSimulate(t *testing.T) {
	m := &core.Model{
		Service: []dist.Dist{dist.NewExponential(1), dist.NewDeterministic(5), dist.NewUniform(1, 3)},
		Failure: []dist.Dist{dist.NewExponential(80), dist.NewExponential(60), dist.Never{}},
		Transfer: func(tasks, src, dst int) dist.Dist {
			return dist.NewExponential(0.5 * float64(tasks))
		},
	}
	s, err := core.NewState(m, []int{6, 0, 0}, core.Policy{{0, 2, 0}, {0, 0, 0}, {0, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	s.Up[2] = false
	s.Advance(6)
	reset := s.Clone()
	reset.AgeW[1], reset.AgeW[2] = 0, 0
	for rep := 0; rep < 200; rep++ {
		got, want := Run(m, s, rngutil.Stream(41, rep)), Run(m, reset, rngutil.Stream(41, rep))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rep %d: advanced state %+v, ages reset %+v", rep, got, want)
		}
	}
	got, err := EstimateState(m, s, Options{Reps: 500, Seed: 41, Workers: 2, Deadline: 20})
	if err != nil {
		t.Fatal(err)
	}
	want, err := EstimateState(m, reset, Options{Reps: 500, Seed: 41, Workers: 2, Deadline: 20})
	if err != nil || got != want {
		t.Fatalf("advanced state %+v, ages reset %+v (%v)", got, want, err)
	}
}

// TestBusyTimeBalancedAtLowDelayOptimum reproduces the paper's §III-A1
// resource-usage discussion: under low network delay the mean-optimal
// policy (ship ~half the slow server's load) keeps both servers busy for
// approximately the same time, while no reallocation leaves the fast
// server idle half the run.
func TestBusyTimeBalancedAtLowDelayOptimum(t *testing.T) {
	m := model2(dist.NewExponential(2), dist.NewExponential(1), 0, 0, 1)
	imbalance := func(pol core.Policy) float64 {
		var b0, b1 float64
		s, err := core.NewState(m, []int{100, 50}, pol)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			o := Run(m, s, rngutil.Stream(77, i))
			if !o.Completed {
				t.Fatal("reliable run must complete")
			}
			b0 += o.BusyTime[0]
			b1 += o.BusyTime[1]
		}
		return math.Abs(b0-b1) / math.Max(b0, b1)
	}
	balanced := imbalance(core.Policy2(50, 0)) // the paper's low-delay optimum
	idleFast := imbalance(core.Policy2(0, 0))
	if balanced > 0.15 {
		t.Fatalf("optimal policy should balance busy times, imbalance %.2f", balanced)
	}
	if idleFast < 2*balanced {
		t.Fatalf("no reallocation should be far less balanced: %.2f vs %.2f", idleFast, balanced)
	}
}

// TestBusyTimeAccounting: total busy time equals the sum of realized
// service durations and never exceeds the completion time per server.
func TestBusyTimeAccounting(t *testing.T) {
	m := model2(dist.NewDeterministic(1), dist.NewDeterministic(2), 0, 0, 0.5)
	s, _ := core.NewState(m, []int{4, 2}, core.Policy2(1, 0))
	o := Run(m, s, rngutil.Stream(78, 0))
	if !o.Completed {
		t.Fatal("must complete")
	}
	if math.Abs(o.BusyTime[0]-3) > 1e-9 { // 3 deterministic 1s tasks
		t.Fatalf("server 1 busy %g, want 3", o.BusyTime[0])
	}
	if math.Abs(o.BusyTime[1]-6) > 1e-9 { // 3 deterministic 2s tasks (2 own + 1 shipped)
		t.Fatalf("server 2 busy %g, want 6", o.BusyTime[1])
	}
	for k, b := range o.BusyTime {
		if b > o.Time+1e-9 {
			t.Fatalf("server %d busy %g beyond completion %g", k, b, o.Time)
		}
	}
}
