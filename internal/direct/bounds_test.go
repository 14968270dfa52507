package direct

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/sim"
	"dtr/internal/testutil"
)

// pinnedBounds is one row of testdata/bounds_pinned.json: a scenario and
// the bracket the former internal/nserver package computed for it (commit
// 055e7ab, the last one that carried that package), every value as its
// IEEE-754 bits in hex. The file is not regenerable from the code under
// test on purpose: it is the record of the deleted implementation.
type pinnedBounds struct {
	Name     string    `json:"name"`
	Family   string    `json:"family"`
	Service  []float64 `json:"service"`
	Failure  []float64 `json:"failure"`
	ZPerTask float64   `json:"zPerTask"`
	Repl     []int     `json:"repl"`
	Grid     int       `json:"grid"`
	Horizon  float64   `json:"horizon"`
	MaxQueue int       `json:"maxQueue"`
	Initial  []int     `json:"initial"`
	Moves    [][3]int  `json:"moves"` // (src, dst, tasks)
	Deadline float64   `json:"deadline"`

	Exact       bool       `json:"exact"`
	Optimistic  pinnedSide `json:"optimistic"`
	Pessimistic pinnedSide `json:"pessimistic"`
}

type pinnedSide struct {
	Mean        string `json:"mean"`
	QoS         string `json:"qos"`
	Reliability string `json:"reliability"`
	TailMass    string `json:"tailMass"`
}

func pinnedLaw(family string, mean float64) dist.Dist {
	switch family {
	case "pareto":
		return dist.NewPareto(2.5, mean)
	case "shiftedexp":
		return dist.NewShiftedExponential(0.25*mean, mean)
	case "uniform":
		return dist.NewUniform(0.5*mean, 1.5*mean)
	}
	panic("unknown family " + family)
}

func (e *pinnedBounds) model() *core.Model {
	m := &core.Model{Repl: e.Repl}
	for k, mean := range e.Service {
		m.Service = append(m.Service, pinnedLaw(e.Family, mean))
		if e.Failure == nil {
			m.Failure = append(m.Failure, dist.Never{})
		} else {
			m.Failure = append(m.Failure, dist.NewExponential(e.Failure[k]))
		}
	}
	m.Transfer = func(tasks, src, dst int) dist.Dist {
		return pinnedLaw(e.Family, e.ZPerTask*float64(max(tasks, 1)))
	}
	return m
}

func (e *pinnedBounds) policy() core.Policy {
	p := core.NewPolicy(len(e.Initial))
	for _, mv := range e.Moves {
		p[mv[0]][mv[1]] = mv[2]
	}
	return p
}

// TestBoundsPinned: Bounds reproduces the deleted package's brackets —
// Exact, TailMass, QoS and Reliability bit for bit on both sides. The
// mean is held to TailMass·dx + 1e-12·|Mean|: the deleted package summed
// 1 − CDF over the lattice, which attributes the truncated tail at H + dx,
// where the solver's mean-of-max kernel (gridfn's MaxIndepInto) puts it at
// the horizon H.
func TestBoundsPinned(t *testing.T) {
	raw, err := os.ReadFile("testdata/bounds_pinned.json")
	if err != nil {
		t.Fatal(err)
	}
	var entries []pinnedBounds
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) < 12 {
		t.Fatalf("%d pinned scenarios, want at least 12", len(entries))
	}
	bits := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	unbits := func(s string) float64 {
		var b uint64
		if _, err := fmt.Sscanf(s, "%x", &b); err != nil {
			t.Fatal(err)
		}
		return math.Float64frombits(b)
	}
	for _, e := range entries {
		sv, err := NewSolver(e.model(), Config{N: e.Grid, Horizon: e.Horizon, MaxQueue: [2]int{e.MaxQueue, e.MaxQueue}})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		b, err := sv.Bounds(Point{Initial: e.Initial, Policy: e.policy()}, e.Deadline)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if b.Exact != e.Exact {
			t.Errorf("%s: exact %v, pinned %v", e.Name, b.Exact, e.Exact)
		}
		for _, side := range []struct {
			name string
			got  Metrics
			want pinnedSide
		}{{"optimistic", b.Optimistic, e.Optimistic}, {"pessimistic", b.Pessimistic, e.Pessimistic}} {
			if got := (pinnedSide{side.want.Mean, bits(side.got.QoS), bits(side.got.Reliability), bits(side.got.TailMass)}); got != side.want {
				t.Errorf("%s %s: %+v, pinned %+v", e.Name, side.name, got, side.want)
			}
			got, want := side.got.Mean, unbits(side.want.Mean)
			if math.IsNaN(got) != math.IsNaN(want) || math.Abs(got-want) > side.got.TailMass*sv.Dx()+1e-12*math.Abs(want) {
				t.Errorf("%s %s: mean %.17g, pinned %.17g (tail mass %g, dx %g)", e.Name, side.name, got, want, side.got.TailMass, sv.Dx())
			}
		}
	}
}

// fleet builds an n-server Pareto model with the given service means.
func fleet(serviceMeans []float64, failMeans []float64, zPerTask float64) *core.Model {
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
		return dist.NewPareto(2.5, zPerTask*float64(max(tasks, 1)))
	}
	return m
}

// TestBoundsCollapseToExact: with at most one group per server the two
// sides coincide, and they are the exact methods' values: the mean is
// Eval's without the tail-excess estimate, bit for bit, QoS and
// Reliability are QoS and Reliability, in both policy forms.
func TestBoundsCollapseToExact(t *testing.T) {
	for _, failing := range []bool{false, true} {
		var fail []float64
		if failing {
			fail = []float64{40, 30}
		}
		s := newSolver(t, fleet([]float64{2, 1}, fail, 1), 16, 1<<12, 80)
		initial, p := []int{8, 4}, core.Policy2(3, 1)
		b, err := s.Bounds(Point{Initial: initial, Policy: p}, 25)
		if err != nil {
			t.Fatal(err)
		}
		if !b.Exact {
			t.Fatal("one group per direction should be flagged exact")
		}
		want := b.Optimistic
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		if pes := b.Pessimistic; !same(pes.Mean, want.Mean) || pes.QoS != want.QoS || pes.Reliability != want.Reliability {
			t.Fatalf("sides differ on an exact policy: %+v / %+v", want, pes)
		}
		if !failing {
			// Bounds attributes the tail at the horizon.
			mean, err := rawMean(s, Pair(8, 4, 3, 1, nil))
			if err != nil {
				t.Fatal(err)
			}
			meanN, err := rawMean(s, Point{Initial: initial, Policy: p})
			if err != nil {
				t.Fatal(err)
			}
			if mean != want.Mean || meanN != want.Mean {
				t.Errorf("mean: pair %v, point %v, Bounds %v", mean, meanN, want.Mean)
			}
		} else if !math.IsNaN(want.Mean) {
			t.Error("mean with failures should be NaN")
		}
		q, err := s.QoS(8, 4, 3, 1, 25)
		if err != nil {
			t.Fatal(err)
		}
		qN, err := s.Eval(Point{Initial: initial, Policy: p}, MetricQoS, 25)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Reliability(8, 4, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		rN, err := s.Eval(Point{Initial: initial, Policy: p}, MetricReliability, 0)
		if err != nil {
			t.Fatal(err)
		}
		if q != want.QoS || qN != want.QoS || r != want.Reliability || rN != want.Reliability {
			t.Errorf("QoS %v / %v / %v, reliability %v / %v / %v (two-server, n-server, Bounds)",
				q, qN, want.QoS, r, rN, want.Reliability)
		}
	}
}

// convergingCase is two groups converging on the fast server of three.
func convergingCase() (initial []int, p core.Policy) {
	p = core.NewPolicy(3)
	p[0][2], p[1][2] = 4, 3
	return []int{10, 6, 2}, p
}

// TestBoundsBracketSimulation: with two groups converging on one server
// the true metrics (Monte-Carlo) must lie inside the bounds, and the
// exact methods must decline.
func TestBoundsBracketSimulation(t *testing.T) {
	m := fleet([]float64{3, 2, 1}, nil, 1.2)
	s := newSolver(t, m, 24, 1<<12, 150)
	initial, p := convergingCase()
	b, err := s.Bounds(Point{Initial: initial, Policy: p}, 40)
	if err != nil {
		t.Fatal(err)
	}
	if b.Exact {
		t.Fatal("two groups to one server is not the exact case")
	}
	if b.Optimistic.Mean > b.Pessimistic.Mean {
		t.Fatalf("bound sides inverted: %g > %g", b.Optimistic.Mean, b.Pessimistic.Mean)
	}
	if _, err := s.Eval(Point{Initial: initial, Policy: p}, MetricMean, 0); err == nil {
		t.Fatal("Eval answered a policy whose finish law depends on the arrival order")
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
	m := fleet([]float64{3, 2, 1}, []float64{60, 50, 40}, 1.2)
	s := newSolver(t, m, 24, 1<<12, 150)
	initial, p := convergingCase()
	b, err := s.Bounds(Point{Initial: initial, Policy: p}, 0)
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

func TestBoundsValidation(t *testing.T) {
	m := fleet([]float64{1, 1}, nil, 1)
	if _, err := NewSolver(m, Config{}); err == nil {
		t.Fatal("MaxQueue 0 should fail")
	}
	s := newSolver(t, m, 4, 1<<10, 40)
	if _, err := s.Bounds(Pair(10, 0, 0, 0, nil), 0); err == nil {
		t.Fatal("load above MaxQueue should fail")
	}
	if _, err := s.Bounds(Pair(2, 2, 9, 0, nil), 0); err == nil {
		t.Fatal("invalid policy should fail")
	}
	if _, err := s.Bounds(Point{Initial: []int{2, 2, 2}, Policy: core.NewPolicy(3)}, 0); err == nil {
		t.Fatal("an allocation for three servers should fail on a two-server model")
	}
	three := newSolver(t, fleet([]float64{1, 1, 1}, nil, 1), 4, 1<<10, 40)
	if _, err := three.MeanTime(2, 2, 1, 0); err == nil {
		t.Fatal("an (L12, L21) policy should fail on a three-server model")
	}
	// A single server is a model like any other: its finish time is the
	// service sum.
	one := newSolver(t, fleet([]float64{1.5}, nil, 1), 6, 1<<12, 60)
	mean, err := one.Eval(Point{Initial: []int{4}, Policy: core.NewPolicy(1)}, MetricMean, 0)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, mean, 6, 1e-2, "one server, four tasks")
}

// TestThreeServersAgainstCoreSolverAndSimulation: on an exact three-server
// policy — one group per destination — Eval meets the
// regeneration solver within the tolerances TestAgainstCoreSolver holds
// the two-server form to, and sit inside the simulator's confidence
// interval.
func TestThreeServersAgainstCoreSolverAndSimulation(t *testing.T) {
	if raceEnabled {
		t.Skip("a serial numerical differential; the regeneration solver takes minutes under the race detector")
	}
	m := &core.Model{
		Service: []dist.Dist{dist.NewPareto(2.5, 1), dist.NewUniform(0.4, 1.2), dist.NewShiftedExponential(0.2, 0.7)},
		Failure: []dist.Dist{dist.Never{}, dist.Never{}, dist.Never{}},
		Transfer: func(tasks, src, dst int) dist.Dist {
			return dist.NewExponential(0.8 * float64(tasks))
		},
	}
	s := newSolver(t, m, 9, 1<<12, 60)
	initial, p := []int{3, 1, 1}, core.NewPolicy(3)
	p[0][1], p[0][2] = 1, 1 // one group into server 1, one into server 2
	const deadline = 5

	sv, err := core.NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	sv.Step, sv.Horizon = 0.05, 60
	st, err := core.NewState(m, initial, p)
	if err != nil {
		t.Fatal(err)
	}
	coreMean, err := sv.MeanTime(st)
	if err != nil {
		t.Fatal(err)
	}
	coreQ, err := sv.QoS(st, deadline)
	if err != nil {
		t.Fatal(err)
	}
	mean, err := s.Eval(Point{Initial: initial, Policy: p}, MetricMean, 0)
	if err != nil {
		t.Fatal(err)
	}
	q, err := s.Eval(Point{Initial: initial, Policy: p}, MetricQoS, deadline)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, mean, coreMean, 0.02, "mean: direct vs core")
	testutil.Almost(t, q, coreQ, 0.03, "QoS: direct vs core")

	est, err := sim.Estimate(m, initial, p, sim.Options{Reps: 40000, Seed: 5, Deadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-est.MeanTime) > 3*est.MeanTimeHalf {
		t.Errorf("mean %g outside the simulated %g ± %g", mean, est.MeanTime, est.MeanTimeHalf)
	}
	if math.Abs(q-est.QoS) > 3*est.QoSHalf {
		t.Errorf("QoS %g outside the simulated %g ± %g", q, est.QoS, est.QoSHalf)
	}
}
