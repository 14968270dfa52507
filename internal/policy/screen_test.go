package policy_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/direct"
	"dtr/internal/exper"
	"dtr/internal/par"
	"dtr/internal/policy"
	"dtr/modelspec"
)

// screenCase is a model, a workload and an objective the screened sweep
// is held to.
type screenCase struct {
	name      string
	model     *core.Model
	m1, m2    int
	grid      int
	horizon   float64 // 0: the solver's automatic horizon
	obj       policy.Objective
	deadline  float64
	maxFactor int
}

func (c screenCase) metric() direct.Metric {
	switch c.obj {
	case policy.ObjMeanTime:
		return direct.MetricMean
	case policy.ObjQoS:
		return direct.MetricQoS
	}
	return direct.MetricReliability
}

// tables starts the case's tables as the planner sizes them.
func (c screenCase) tables(t *testing.T) *direct.Tables {
	t.Helper()
	q := c.m1 + c.m2
	tb, err := direct.NewTables(c.model, direct.Config{N: c.grid, Horizon: c.horizon, MaxQueue: [2]int{q, q}, MaxFactor: c.maxFactor})
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return tb
}

// combos are the factor pairs OptimizeRepl2 sweeps, in its order.
func (c screenCase) combos() [][2]int {
	var out [][2]int
	for f1 := 1; f1 <= max(c.maxFactor, 1); f1++ {
		for f2 := 1; f2 <= max(c.maxFactor, 1); f2++ {
			out = append(out, [2]int{f1, f2})
		}
	}
	return out
}

// pairOf is servers i and j of a multi-server model as a two-server one.
func pairOf(m *core.Model, i, j int) *core.Model {
	orig := [2]int{i, j}
	return &core.Model{
		Service:  []dist.Dist{m.Service[i], m.Service[j]},
		Failure:  []dist.Dist{m.Failure[i], m.Failure[j]},
		Transfer: func(tasks, src, dst int) dist.Dist { return m.Transfer(tasks, orig[src], orig[dst]) },
	}
}

// objCases appends the QoS case of m at deadline and, when a server can
// fail, its reliability case, or else its mean case.
func objCases(cs []screenCase, c screenCase, deadline float64) []screenCase {
	c.obj, c.deadline = policy.ObjQoS, deadline
	cs = append(cs, c)
	c.obj, c.deadline = policy.ObjMeanTime, 0
	if !c.model.Reliable() {
		c.obj = policy.ObjReliability
	}
	return append(cs, c)
}

// meanCase appends the mean case of m.
func meanCase(cs []screenCase, c screenCase) []screenCase {
	c.obj, c.deadline = policy.ObjMeanTime, 0
	return append(cs, c)
}

// neverFails is m with every failure law replaced by dist.Never.
func neverFails(m *core.Model) *core.Model {
	r := *m
	r.Failure = make([]dist.Dist, len(m.Failure))
	for i := range r.Failure {
		r.Failure[i] = dist.Never{}
	}
	return &r
}

// screenCorpus is every model the screen is held to: the canonical
// models of results/ and Table I under every paper family and delay,
// reliable and failure-prone; the testbed of Fig. 4(c); server pairs of
// the Table II models, failure-prone and (for the mean) reliable; the
// benchmark's testbed spec at its two grids; the severe-delay Pareto
// model with Pareto failure laws; the benchmark's lab_sweep model (mean,
// 100 + 100 tasks, grid 2048); and seeded random small models — Pareto
// service with α ∈ (1, 2], exponential and Pareto failure laws (and,
// for the mean, none), replication factors 1–2. Every model is swept for
// QoS and for reliability or, when no server fails, the mean. Under the
// race detector, which checks the sweep's concurrency rather than its
// values, only the testbed and the random models run.
var screenCorpus = sync.OnceValue(func() []screenCase {
	var cs []screenCase
	families := dist.PaperFamilies()
	if policy.RaceEnabled {
		families = nil
	}
	for _, f := range families {
		for _, d := range []exper.Delay{exper.LowDelay, exper.SevereDelay} {
			for _, rel := range []bool{true, false} {
				cs = objCases(cs, screenCase{
					name:  fmt.Sprintf("canonical/%v/%v/reliable=%v", f, d, rel),
					model: exper.CanonicalModel(f, d, rel), m1: exper.M1, m2: exper.M2,
					grid: 1024, horizon: d.Horizon(),
				}, exper.QoSDeadline)
			}
		}
		m, rm := exper.Table2Model(f, false), exper.Table2Model(f, true)
		for j := 1; j < len(exper.Table2Initial); j++ {
			c := screenCase{
				name:  fmt.Sprintf("table2/%v/servers %d+%d", f, j-1, j),
				model: pairOf(m, j-1, j), m1: exper.Table2Initial[j-1], m2: exper.Table2Initial[j],
				grid: 1024,
			}
			cs = objCases(cs, c, 120)
			c.name, c.model = c.name+"/reliable", pairOf(rm, j-1, j)
			cs = meanCase(cs, c)
		}
	}
	for _, rel := range []bool{true, false} {
		cs = objCases(cs, screenCase{
			name:  fmt.Sprintf("testbed/reliable=%v", rel),
			model: exper.TestbedModel(rel), m1: exper.TBM1, m2: exper.TBM2, grid: 1024, horizon: 1200,
		}, 200)
	}
	m, queues, err := modelspec.Load("../../examples/specs/testbed.json")
	if err != nil {
		panic(err)
	}
	for _, grid := range []int{2048, 4096} {
		if policy.RaceEnabled {
			break
		}
		cs = objCases(cs, screenCase{
			name:  fmt.Sprintf("spec testbed/grid %d", grid),
			model: m, m1: queues[0], m2: queues[1], grid: grid,
		}, 200)
	}
	if !policy.RaceEnabled {
		severe := exper.CanonicalModel(dist.FamilyPareto2, exper.SevereDelay, true)
		severe.Failure = []dist.Dist{dist.NewPareto(2.5, 400), dist.NewPareto(2.5, 300)}
		cs = objCases(cs, screenCase{
			name: "severe/pareto failures", model: severe, m1: exper.M1, m2: exper.M2, grid: 1024, horizon: exper.HorizonSevere,
		}, exper.QoSDeadline)
		spec := modelspec.SystemSpec{
			Servers: []modelspec.ServerSpec{
				{Queue: 100, Service: modelspec.DistSpec{Type: "pareto", Mean: 2, Alpha: 2.5}},
				{Queue: 100, Service: modelspec.DistSpec{Type: "pareto", Mean: 1, Alpha: 2.5}},
			},
			Transfer: modelspec.TransferSpec{DistSpec: modelspec.DistSpec{Type: "pareto", Alpha: 2.5}, PerTaskMean: 3},
		}
		lab, queues, err := spec.Build()
		if err != nil {
			panic(err)
		}
		cs = meanCase(cs, screenCase{name: "bench lab_sweep", model: lab, m1: queues[0], m2: queues[1], grid: 2048, horizon: 2600})
	}

	r := rand.New(rand.NewSource(43))
	for i := range 8 {
		m := &core.Model{}
		for range 2 {
			m.Service = append(m.Service, dist.NewPareto(2-r.Float64(), 0.5+2*r.Float64()))
			switch r.Intn(3) {
			case 0:
				m.Failure = append(m.Failure, dist.Never{})
			case 1:
				m.Failure = append(m.Failure, dist.NewExponential(20+80*r.Float64()))
			default:
				m.Failure = append(m.Failure, dist.NewPareto(1.2+2*r.Float64(), 20+80*r.Float64()))
			}
		}
		perTask, pareto := 0.2+r.Float64(), r.Intn(2) == 0
		m.Transfer = func(tasks, src, dst int) dist.Dist {
			if pareto {
				return dist.NewPareto(2.5, perTask*float64(max(tasks, 1)))
			}
			return dist.NewExponential(perTask * float64(max(tasks, 1)))
		}
		c := screenCase{
			name:  fmt.Sprintf("random %d", i),
			model: m, m1: 6 + r.Intn(14), m2: 3 + r.Intn(8), grid: 256 << r.Intn(3), horizon: 60 + 200*r.Float64(),
			maxFactor: 2,
		}
		cs = objCases(cs, c, 10+40*r.Float64())
		if !m.Reliable() {
			c.name, c.model = c.name+"/reliable", neverFails(m)
			cs = meanCase(cs, c)
		}
	}
	return cs
})

// screenScan is one case's exact values and scores — and for the mean
// its walked bounds — at every lattice point, row-major in (L12, L21),
// the exhaustive sweep's order, under each factor combination.
type screenScan struct {
	exact, score, walk [][]float64 // [combo][point]
}

var screenScans = sync.OnceValues(func() ([]screenScan, error) {
	cs := screenCorpus()
	out := make([]screenScan, len(cs))
	for ci, c := range cs {
		tb, err := direct.NewTables(c.model, direct.Config{N: c.grid, Horizon: c.horizon,
			MaxQueue: [2]int{c.m1 + c.m2, c.m1 + c.m2}, MaxFactor: c.maxFactor})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		s, _ := tb.View(c.maxFactor, nil)
		points := (c.m1 + 1) * (c.m2 + 1)
		for _, fac := range c.combos() {
			sn, err := s.Screen(c.metric(), c.deadline, fac[:])
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.name, err)
			}
			exact, score, walk := make([]float64, points), make([]float64, points), make([]float64, points)
			err = par.ForEach(0, points, func(_, i int) error {
				pt := direct.Pair(c.m1, c.m2, i/(c.m2+1), i%(c.m2+1), fac[:])
				var err error
				if exact[i], err = s.Eval(pt, c.metric(), c.deadline); err != nil {
					return err
				}
				if score[i], err = sn.Score(pt); err != nil || c.obj != policy.ObjMeanTime {
					return err
				}
				walk[i], err = sn.Refine(pt)
				return err
			})
			sn.Release()
			if err != nil {
				return nil, fmt.Errorf("%s at factors %v: %w", c.name, fac, err)
			}
			out[ci].exact = append(out[ci].exact, exact)
			out[ci].score = append(out[ci].score, score)
			out[ci].walk = append(out[ci].walk, walk)
		}
	}
	return out, nil
})

// TestScreenGapBound: over the whole corpus, every QoS or reliability
// score is within ScreenEps/1000 of its exact value, and every mean
// pre-bound is at most the walked bound, itself at most ScreenEps/1000
// relative above the exact value: a thousandfold margin on the bounds
// the sweep's confirmation rules assume. The largest gap of each kind is
// logged, and per mean model and factors how many points the pre-bound
// and the walked bound cannot rule out against the exact optimum, beside
// the bounds an exhaustive sweep walks.
func TestScreenGapBound(t *testing.T) {
	scans, err := screenScans()
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	worstMean := math.Inf(-1)
	var where, whereMean string
	points, meanPoints := 0, 0
	for ci, c := range screenCorpus() {
		var tb *direct.Tables
		if c.obj == policy.ObjMeanTime {
			tb = c.tables(t)
		}
		for fi, fac := range c.combos() {
			_, _, opt := firstBest(c.obj, scans[ci].exact[fi], c.m2)
			preLeft, walkLeft := 0, 0
			for i, want := range scans[ci].exact[fi] {
				got := scans[ci].score[fi][i]
				at := fmt.Sprintf("%s %v factors %v (L12, L21) = (%d, %d)", c.name, c.obj, fac, i/(c.m2+1), i%(c.m2+1))
				if c.obj == policy.ObjMeanTime {
					meanPoints++
					walk := scans[ci].walk[fi][i]
					if got <= opt+direct.ScreenEps*opt {
						preLeft++
					}
					if walk <= opt+direct.ScreenEps*opt {
						walkLeft++
					}
					if !(got <= walk) {
						t.Errorf("%s: pre-bound %v above walked bound %v", at, got, walk)
					}
					if !(walk <= want+direct.ScreenEps/1000*want) {
						t.Errorf("%s: walked bound %v above Eval %v", at, walk, want)
					}
					if gap := (walk - want) / want; gap > worstMean {
						worstMean, whereMean = gap, at
					}
					continue
				}
				points++
				if math.IsNaN(want) != math.IsNaN(got) {
					t.Fatalf("%s: score %v, exact %v", at, got, want)
				}
				if gap := math.Abs(got - want); gap > worst {
					worst, where = gap, at
				}
			}
			if tb != nil {
				s, _ := tb.View(c.maxFactor, nil)
				_, _, walks, err := policy.ConfirmChunks(s, c.m1, c.m2, fac, 0, false)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				t.Logf("%s factors %v: of %d points the optimum rules out all but %d by pre-bound, %d by walked bound; the sweep walks %d",
					c.name, fac, len(scans[ci].exact[fi]), preLeft, walkLeft, walks)
			}
		}
	}
	t.Logf("largest |score − Eval| over %d QoS and reliability points: %.3g at %s", points, worst, where)
	t.Logf("largest (walked bound − Eval)/Eval over %d mean points: %.3g at %s", meanPoints, worstMean, whereMean)
	if worst > direct.ScreenEps/1000 {
		t.Fatalf("largest gap %.3g exceeds ScreenEps/1000 = %g", worst, direct.ScreenEps/1000)
	}
}

// TestLazyWalksConfirmEagerChunks: on every mean case of the corpus and
// under each factor combination, an exhaustive batch that walks its
// candidates lazily confirms the points, in the chunks and the order,
// that walking every candidate first confirms, and lands on the same
// incumbent — at one worker and at two.
func TestLazyWalksConfirmEagerChunks(t *testing.T) {
	for _, c := range screenCorpus() {
		if c.obj != policy.ObjMeanTime {
			continue
		}
		tb := c.tables(t)
		for _, fac := range c.combos() {
			ref, _ := tb.View(c.maxFactor, nil)
			wantBest, want, _, err := policy.ConfirmChunks(ref, c.m1, c.m2, fac, 1, true)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			for _, workers := range []int{1, 2} {
				s, _ := tb.View(c.maxFactor, nil)
				best, got, _, err := policy.ConfirmChunks(s, c.m1, c.m2, fac, workers, false)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				if !reflect.DeepEqual(got, want) || best.L12 != wantBest.L12 || best.L21 != wantBest.L21 ||
					math.Float64bits(best.Value) != math.Float64bits(wantBest.Value) {
					t.Errorf("%s factors %v, %d workers: lazy walks confirmed %v for %+v, eager %v for %+v",
						c.name, fac, workers, got, best, want, wantBest)
				}
			}
		}
	}
}

// firstBest is the exhaustive sweep's reduction over exact values in
// scan order: strictly better replaces, so the first best wins.
func firstBest(obj policy.Objective, vals []float64, m2 int) (l12, l21 int, v float64) {
	l12, l21, v = -1, -1, math.Inf(-1)
	if obj == policy.ObjMeanTime {
		v = math.Inf(1)
	}
	for i, x := range vals {
		if better(obj, x, v) {
			l12, l21, v = i/(m2+1), i%(m2+1), x
		}
	}
	return l12, l21, v
}

// better is the objective's strict comparison.
func better(obj policy.Objective, a, b float64) bool {
	if obj == policy.ObjMeanTime {
		return a < b
	}
	return a > b
}

func sameResult(t *testing.T, what string, got, want policy.Result2) {
	t.Helper()
	if got.L12 != want.L12 || got.L21 != want.L21 || math.Float64bits(got.Value) != math.Float64bits(want.Value) ||
		got.Evaluations != want.Evaluations || got.Diag != want.Diag {
		t.Errorf("%s: screened sweep %+v, reference %+v", what, got, want)
	}
}

// TestScreenedSweepMatchesFoldSweep: on every corpus model, exhaustive
// and coarse-to-fine Optimize2 and OptimizeRepl2 return the policy, the
// value bits and the evaluation count of a reference that evaluates
// every candidate with Eval: for the exhaustive sweep the test's own scan
// of the whole lattice in the sweep's order, for coarse-to-fine the
// sweep's candidates with nothing screened. The view's evaluation count
// is the sweep's: a screened point counts once, its confirmation not
// again.
func TestScreenedSweepMatchesFoldSweep(t *testing.T) {
	scans, err := screenScans()
	if err != nil {
		t.Fatal(err)
	}
	for ci, c := range screenCorpus() {
		tb := c.tables(t)
		points := (c.m1 + 1) * (c.m2 + 1)
		for _, exhaustive := range []bool{true, false} {
			name := fmt.Sprintf("%s %v exhaustive=%v", c.name, c.obj, exhaustive)
			opt := policy.Options2{Deadline: c.deadline, Exhaustive: exhaustive}
			want := make([]policy.Result2, len(c.combos()))
			for fi, fac := range c.combos() {
				if exhaustive {
					l12, l21, v := firstBest(c.obj, scans[ci].exact[fi], c.m2)
					want[fi] = policy.Result2{L12: l12, L21: l21, Value: v, Evaluations: points, Diag: policy.SweepDiagnostics{
						Feasible: points, Evaluated: points, Batches: 1, Coverage: 1, Exhaustive: true,
					}}
					continue
				}
				ref, _ := tb.View(c.maxFactor, nil)
				if want[fi], err = policy.ReferenceOptimize2(ref, c.m1, c.m2, c.obj, opt, fac); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := ref.Diagnostics().Evaluations; got != uint64(want[fi].Evaluations) {
					t.Fatalf("%s: reference view counted %d evaluations for %d", name, got, want[fi].Evaluations)
				}
			}
			if c.maxFactor <= 1 {
				s, _ := tb.View(c.maxFactor, nil)
				got, err := policy.Optimize2(s, c.m1, c.m2, c.obj, opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sameResult(t, name, got, want[0])
				if n := s.Diagnostics().Evaluations; n != uint64(got.Evaluations) {
					t.Errorf("%s: the view counted %d evaluations for the sweep's %d", name, n, got.Evaluations)
				}
				continue
			}
			s, _ := tb.View(c.maxFactor, nil)
			got, err := policy.OptimizeRepl2(s, c.m1, c.m2, c.obj, policy.ReplOptions2{Options2: opt, MaxFactor: c.maxFactor})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			best, total := 0, 0
			for fi, fac := range c.combos() {
				w := want[fi]
				total += w.Evaluations
				if better(c.obj, w.Value, want[best].Value) {
					best = fi
				}
				cb := got.Combos[fi]
				if cb.Factors != fac || cb.L12 != w.L12 || cb.L21 != w.L21 || math.Float64bits(cb.Value) != math.Float64bits(w.Value) {
					t.Errorf("%s factors %v: screened combo %+v, reference %+v", name, fac, cb, w)
				}
			}
			if got.Factors != c.combos()[best] || got.Evaluations != total {
				t.Errorf("%s: screened plan factors %v over %d evaluations, reference %v over %d",
					name, got.Factors, got.Evaluations, c.combos()[best], total)
			}
			w := want[best]
			w.Evaluations = total
			sameResult(t, name+" plan", got.Result2, w)
			if n := s.Diagnostics().Evaluations; n != uint64(total) {
				t.Errorf("%s: the view counted %d evaluations for the search's %d", name, n, total)
			}
		}
	}
}
