package direct

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"dtr/dist"
	"dtr/internal/core"
)

// unit maps an arbitrary float into [0, 1).
func unit(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0.5
	}
	_, f := math.Modf(math.Abs(x))
	return f
}

// FuzzScreenMatchesFold: on an arbitrary small model (Pareto service
// with α ∈ (1, 3], failure laws never, exponential or Pareto, lattices of
// 64 to 512 points, factors 1–2) and deadline, the score of every point
// of the (L12, L21) lattice is within ScreenEps/1000 of Eval, and the
// points a sweep would confirm — scores within 2·ScreenEps of the best —
// hold every maximizer of Eval.
func FuzzScreenMatchesFold(f *testing.F) {
	f.Add(0.5, 0.2, 0.3, 0.7, uint8(1), uint8(2), 0.4, 0.6, uint8(3), uint8(8), uint8(5), 0.5, true, uint8(0))
	f.Add(0.01, 0.99, 0.05, 0.9, uint8(2), uint8(0), 0.9, 0.1, uint8(0), uint8(12), uint8(12), 0.05, false, uint8(3))
	f.Add(0.9, 0.9, 0.5, 0.5, uint8(0), uint8(0), 0.5, 0.5, uint8(1), uint8(4), uint8(1), 0.99, true, uint8(1))
	f.Fuzz(func(t *testing.T, a1, a2, w1, w2 float64, y1, y2 uint8, fm1, fm2 float64, logGrid, m1, m2 uint8,
		deadline float64, qos bool, facBits uint8) {
		fail := func(kind uint8, u float64) dist.Dist {
			switch kind % 3 {
			case 1:
				return dist.NewExponential(5 + 100*u)
			case 2:
				return dist.NewPareto(1.1+2*u, 5+100*u)
			}
			return dist.Never{}
		}
		m := &core.Model{
			Service: []dist.Dist{dist.NewPareto(3-2*unit(a1), 0.2+2*unit(w1)), dist.NewPareto(3-2*unit(a2), 0.2+2*unit(w2))},
			Failure: []dist.Dist{fail(y1, unit(fm1)), fail(y2, unit(fm2))},
			Transfer: func(tasks, src, dst int) dist.Dist {
				return dist.NewExponential((0.1 + unit(a1+w2)) * float64(max(tasks, 1)))
			},
		}
		n1, n2 := int(m1%13), int(m2%13)
		metric := MetricReliability
		if qos {
			metric = MetricQoS
		}
		s, err := NewSolver(m, Config{N: 64 << (logGrid % 4), MaxQueue: [2]int{n1 + n2 + 1, n1 + n2 + 1}, MaxFactor: 2})
		if err != nil {
			t.Fatal(err)
		}
		tm := 1.2 * unit(deadline) * s.horizon()
		fac := []int{1 + int(facBits&1), 1 + int(facBits>>1&1)}
		sn, err := s.Screen(metric, tm, fac)
		if err != nil {
			t.Fatal(err)
		}
		defer sn.Release()
		var exact, score []float64
		for i := 0; i <= n1; i++ {
			for j := 0; j <= n2; j++ {
				pt := Pair(n1, n2, i, j, fac)
				e, err := s.Eval(pt, metric, tm)
				if err != nil {
					t.Fatal(err)
				}
				v, err := sn.Score(pt)
				if err != nil {
					t.Fatal(err)
				}
				if gap := math.Abs(v - e); !(gap <= ScreenEps/1000) {
					t.Fatalf("(%d, %d) at factors %v, metric %d, deadline %g: score %v, Eval %v, gap %g", i, j, fac, metric, tm, v, e, gap)
				}
				exact, score = append(exact, e), append(score, v)
			}
		}
		top, best := math.Inf(-1), math.Inf(-1)
		for i := range score {
			top, best = max(top, score[i]), max(best, exact[i])
		}
		for i := range exact {
			if exact[i] == best && score[i] < top-2*ScreenEps {
				t.Fatalf("maximizer %d (Eval %v) left out: score %v, best score %v", i, exact[i], score[i], top)
			}
		}
	})
}

// FuzzMeanScreenBelowEval: on an arbitrary small reliable model (Pareto
// service with α ∈ (1, 3], Pareto or exponential transfers, lattices of
// 64 to 512 points over horizons from well inside the finish times' bulk
// to well beyond it, factors 1–2), at every point of the (L12, L21)
// lattice the mean's pre-bound (Score) is at most its walked bound
// (Refine), which is at most Confirm + ScreenEps/1000·Confirm, and
// confirming from the least walked bound up — while a bound is within
// ScreenEps relative of the least exact value so far — confirms the
// first-wins minimizer of the exact values.
func FuzzMeanScreenBelowEval(f *testing.F) {
	f.Add(0.5, 0.2, 0.3, 0.7, 0.4, uint8(1), uint8(8), uint8(5), true, uint8(0))
	f.Add(0.99, 0.95, 0.05, 0.9, 0.02, uint8(2), uint8(12), uint8(12), false, uint8(3))
	f.Add(0.9, 0.1, 0.5, 0.5, 0.9, uint8(0), uint8(4), uint8(1), true, uint8(1))
	f.Fuzz(func(t *testing.T, a1, a2, w1, w2, hor float64, logGrid, m1, m2 uint8, pareto bool, facBits uint8) {
		mw := []float64{0.2 + 2*unit(w1), 0.2 + 2*unit(w2)}
		perTask := 0.1 + unit(a1+w2)
		m := &core.Model{
			Service: []dist.Dist{dist.NewPareto(3-2*unit(a1), mw[0]), dist.NewPareto(3-2*unit(a2), mw[1])},
			Failure: []dist.Dist{dist.Never{}, dist.Never{}},
			Transfer: func(tasks, src, dst int) dist.Dist {
				if pareto {
					return dist.NewPareto(1.5+unit(a2+w1), perTask*float64(max(tasks, 1)))
				}
				return dist.NewExponential(perTask * float64(max(tasks, 1)))
			},
		}
		n1, n2 := int(m1%13), int(m2%13)
		h := (0.2 + 2*unit(hor)) * float64(n1+n2+1) * max(mw[0], mw[1])
		s, err := NewSolver(m, Config{N: 64 << (logGrid % 4), Horizon: h, MaxQueue: [2]int{n1 + n2 + 1, n1 + n2 + 1}, MaxFactor: 2})
		if err != nil {
			t.Fatal(err)
		}
		fac := []int{1 + int(facBits&1), 1 + int(facBits>>1&1)}
		sn, err := s.Screen(MetricMean, 0, fac)
		if err != nil {
			t.Fatal(err)
		}
		defer sn.Release()
		var exact, score []float64
		for i := 0; i <= n1; i++ {
			for j := 0; j <= n2; j++ {
				pt := Pair(n1, n2, i, j, fac)
				pre, err := sn.Score(pt)
				if err != nil {
					t.Fatal(err)
				}
				v, err := sn.Refine(pt)
				if err != nil {
					t.Fatal(err)
				}
				e, err := sn.Confirm(pt)
				if err != nil {
					t.Fatal(err)
				}
				if !(pre <= v) {
					t.Fatalf("(%d, %d) at factors %v, horizon %g: pre-bound %v above walked bound %v by %g", i, j, fac, h, pre, v, pre-v)
				}
				if !(v <= e+ScreenEps/1000*e) {
					t.Fatalf("(%d, %d) at factors %v, horizon %g: walked bound %v above Eval %v by %g", i, j, fac, h, v, e, v-e)
				}
				exact, score = append(exact, e), append(score, v)
			}
		}
		argmin, best := -1, math.Inf(1)
		for i, e := range exact {
			if e < best {
				argmin, best = i, e
			}
		}
		order := make([]int, len(score))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return score[order[a]] < score[order[b]] })
		ref := math.Inf(1)
		for _, i := range order {
			if score[i] > ref+ScreenEps*ref {
				break
			}
			if i == argmin {
				return
			}
			ref = min(ref, exact[i])
		}
		if argmin >= 0 {
			t.Fatalf("minimizer %d (Eval %v, score %v) not confirmed", argmin, exact[argmin], score[argmin])
		}
	})
}

// FuzzTransferBounds: for an arbitrary transfer law — Pareto with α ∈
// (1, 3], exponential or shifted gamma — on lattices of 64 to 4096 points
// over horizons from a hundredth of the law's mean to a hundred times
// it, the mean pre-bound's zBounds lie below what they bound of the
// law's lattice: low below its mass through the split, mean below its
// Mean().
func FuzzTransferBounds(f *testing.F) {
	f.Add(uint8(0), 0.5, 0.3, 0.4, uint8(1))
	f.Add(uint8(1), 0.2, 0.9, 0.01, uint8(6))
	f.Add(uint8(2), 0.7, 0.1, 0.99, uint8(3))
	f.Fuzz(func(t *testing.T, kind uint8, a, b, hor float64, logGrid uint8) {
		mean := 0.05 + 10*unit(b)
		var law dist.Dist
		switch kind % 3 {
		case 0:
			law = dist.NewPareto(3-2*unit(a), mean)
		case 1:
			law = dist.NewExponential(mean)
		default:
			law = dist.NewShiftedGammaMean(0.9*unit(a)*mean, 0.3+5*unit(a+b), mean)
		}
		m := &core.Model{
			Service:  []dist.Dist{dist.NewExponential(1), dist.NewExponential(1)},
			Failure:  []dist.Dist{dist.Never{}, dist.Never{}},
			Transfer: func(int, int, int) dist.Dist { return law },
		}
		n, h := 64<<(logGrid%7), (0.01+100*unit(hor))*mean
		s, err := NewSolver(m, Config{N: n, Horizon: h, MaxQueue: [2]int{1, 1}})
		if err != nil {
			t.Fatal(err)
		}
		b0, z := s.t.transferBounds(1, 0, 1), s.transferOf(1, 0, 1).lat
		if low := massThrough(z, s.t.split()); !(b0.low <= low) {
			t.Fatalf("%#v on %d points over %g: split CDF bound %v above the lattice's %v", law, n, h, b0.low, low)
		}
		if mu := z.Mean(); !(b0.mean <= mu) {
			t.Fatalf("%#v on %d points over %g: mean bound %v above the lattice's %v", law, n, h, b0.mean, mu)
		}
	})
}

// TestScreenRefusesWhatEvalRefuses: a screen refuses what Eval refuses
// for every point — a negative deadline, the mean of a failure-prone
// model — with Eval's error, and its scores (and the mean's walks) fail
// where Eval fails, with Eval's errors.
func TestScreenRefusesWhatEvalRefuses(t *testing.T) {
	m := model2(dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1), 50, 0, 1)
	s := newSolver(t, m, 12, 256, 80)
	_, want := s.Eval(Pair(8, 4, 2, 0, nil), MetricMean, 0)
	if _, err := s.Screen(MetricMean, 0, []int{1, 1}); want == nil || fmt.Sprint(err) != fmt.Sprint(want) {
		t.Fatalf("the mean of a failure-prone model: Screen error %v, Eval error %v", err, want)
	}
	_, want = s.Eval(Pair(8, 4, 2, 0, nil), MetricQoS, -1)
	if _, err := s.Screen(MetricQoS, -1, []int{1, 1}); want == nil || fmt.Sprint(err) != fmt.Sprint(want) {
		t.Fatalf("a negative deadline: Screen error %v, Eval error %v", err, want)
	}
	reliable := newSolver(t, model2(dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1), 0, 0, 1), 12, 256, 80)
	// The tables hold factor 1 only: every factor-2 point fails.
	for _, fac := range [][]int{{1, 1}, {2, 1}} {
		for _, c := range []struct {
			s *Solver
			m Metric
		}{{s, MetricReliability}, {reliable, MetricMean}} {
			sn, err := c.s.Screen(c.m, 0, fac)
			if err != nil {
				t.Fatal(err)
			}
			for _, pt := range []Point{Pair(8, 4, 2, 0, fac), Pair(8, 4, 9, 0, fac), Pair(8, 4, 0, 20, fac), Pair(13, 4, 0, 0, fac),
				{Initial: []int{8, 4}, Policy: core.Policy{{0, 2}, {1, 0}}, Fac: fac[:1]}} {
				_, want := c.s.Eval(pt, c.m, 0)
				if _, got := sn.Score(pt); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("metric %d, factors %v %+v: Score error %v, Eval error %v", c.m, fac, pt, got, want)
				}
				if _, got := sn.Refine(pt); c.m == MetricMean && fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("factors %v %+v: Refine error %v, Eval error %v", fac, pt, got, want)
				}
			}
			sn.Release()
		}
	}
	if _, err := s.Eval(Pair(8, 4, 2, 0, []int{2, 1}), MetricReliability, 0); err == nil || !strings.Contains(err.Error(), "raise Config.MaxFactor") {
		t.Fatalf("factor beyond the tables: %v", err)
	}
}

// TestWarmScreenedPointAllocatesNothing: once its weight tables or
// prefix statistics are made, a screened point — a Pair built per call
// included — allocates nothing, for every kind of weight (survival,
// survival to a deadline and a reliable server's step) and for the
// mean's pre-bound and walked bound.
func TestWarmScreenedPointAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	solver := func(fail float64) *Solver {
		m := model2(dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1), fail, 0, 1)
		s, err := NewSolver(m, Config{N: 1 << 11, Horizon: 200, MaxQueue: [2]int{24, 24}, MaxFactor: 2})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s, reliable := solver(60), solver(0)
	for _, fac := range [][]int{{1, 1}, {2, 1}} {
		for _, metric := range []Metric{MetricQoS, MetricReliability, MetricMean} {
			s := s
			if metric == MetricMean {
				s = reliable
			}
			sn, err := s.Screen(metric, 40, fac)
			if err != nil {
				t.Fatal(err)
			}
			score := func() {
				if _, err := sn.Score(Pair(16, 8, 5, 2, fac)); err != nil {
					t.Fatal(err)
				}
			}
			score()
			if allocs := testing.AllocsPerRun(200, score); allocs > 0 {
				t.Errorf("warm screened point, metric %d, factors %v: %v allocations, want 0", metric, fac, allocs)
			}
			if metric == MetricMean {
				walk := func() {
					if _, err := sn.Refine(Pair(16, 8, 5, 2, fac)); err != nil {
						t.Fatal(err)
					}
				}
				walk()
				if allocs := testing.AllocsPerRun(200, walk); allocs > 0 {
					t.Errorf("warm walked point, factors %v: %v allocations, want 0", fac, allocs)
				}
			}
			sn.Release()
		}
	}
}
