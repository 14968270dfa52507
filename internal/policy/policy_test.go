package policy

import (
	"math"
	"testing"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/direct"
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

func solver2(t *testing.T, m *core.Model, maxQ, n int, horizon float64) *direct.Solver {
	t.Helper()
	s, err := direct.NewSolver(m, direct.Config{N: n, Horizon: horizon, MaxQueue: [2]int{maxQ, maxQ}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestOptimize2MatchesExhaustive: the coarse-to-fine search must find the
// same optimum as brute force on a moderate lattice.
func TestOptimize2MatchesExhaustive(t *testing.T) {
	m := model2(dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1), 0, 0, 1)
	s := solver2(t, m, 40, 1<<12, 160)
	fast, err := Optimize2(s, 24, 12, ObjMeanTime, Options2{})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Optimize2(s, 24, 12, ObjMeanTime, Options2{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fast.Value-slow.Value) > 1e-9*slow.Value {
		t.Fatalf("coarse-to-fine %v differs from exhaustive %v", fast, slow)
	}
	if fast.Evaluations >= slow.Evaluations {
		t.Fatalf("coarse-to-fine used %d evals, exhaustive %d", fast.Evaluations, slow.Evaluations)
	}
}

// TestOptimize2MovesLoadToFastServer: with a slow server 1 and cheap
// transfers, the mean-optimal policy ships a large chunk to server 2 and
// nothing back.
func TestOptimize2MovesLoadToFastServer(t *testing.T) {
	m := model2(dist.NewExponential(2), dist.NewExponential(1), 0, 0, 0.1)
	s := solver2(t, m, 32, 1<<12, 120)
	res, err := Optimize2(s, 20, 4, ObjMeanTime, Options2{})
	if err != nil {
		t.Fatal(err)
	}
	if res.L12 < 8 {
		t.Fatalf("expected a large L12 with cheap transfers, got %+v", res)
	}
	if res.L21 > 1 {
		t.Fatalf("no reason to ship load to the slow server: %+v", res)
	}
}

// TestOptimize2SevereDelayKeepsLoad: as transfers get expensive the
// optimal shipment shrinks — the central qualitative claim of Figs. 1–3.
func TestOptimize2SevereDelayShrinksShipment(t *testing.T) {
	var prev ints
	for _, z := range []float64{0.2, 2, 8} {
		m := model2(dist.NewExponential(2), dist.NewExponential(1), 0, 0, z)
		s := solver2(t, m, 32, 1<<12, 300)
		res, err := Optimize2(s, 20, 4, ObjMeanTime, Options2{Exhaustive: true})
		if err != nil {
			t.Fatal(err)
		}
		if prev.set && res.L12 > prev.l12 {
			t.Fatalf("optimal L12 grew from %d to %d as transfers slowed", prev.l12, res.L12)
		}
		prev = ints{true, res.L12}
	}
}

type ints struct {
	set bool
	l12 int
}

func TestOptimize2QoSRequiresDeadline(t *testing.T) {
	m := model2(dist.NewExponential(1), dist.NewExponential(1), 0, 0, 1)
	s := solver2(t, m, 8, 1<<11, 60)
	if _, err := Optimize2(s, 4, 4, ObjQoS, Options2{}); err == nil {
		t.Fatal("QoS without deadline should error")
	}
	res, err := Optimize2(s, 4, 4, ObjQoS, Options2{Deadline: 10, Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value <= 0 || res.Value > 1 {
		t.Fatalf("QoS optimum out of range: %+v", res)
	}
}

// TestOptimize2ReliabilityPrefersReliableServer: when server 2 is fast
// but fragile, the reliability objective ships less to it than the
// mean-time objective does — the paper's trade-off discussion (§III-A1).
func TestOptimize2ObjectivesConflict(t *testing.T) {
	// The mean-time policy is computed under the paper's reliable-server
	// assumption; the reliability policy sees the failure laws.
	mRel := model2(dist.NewExponential(2), dist.NewExponential(1), 0, 0, 0.5)
	sRel := solver2(t, mRel, 24, 1<<12, 120)
	mean, err := Optimize2(sRel, 16, 4, ObjMeanTime, Options2{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	m := model2(dist.NewExponential(2), dist.NewExponential(1), 1000, 30, 0.5)
	s := solver2(t, m, 24, 1<<12, 120)
	rel, err := Optimize2(s, 16, 4, ObjReliability, Options2{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if rel.L12 >= mean.L12 {
		t.Fatalf("reliability policy (L12=%d) should ship less to the fragile fast server than the mean policy (L12=%d)",
			rel.L12, mean.L12)
	}
}

func TestInitialPolicyBalances(t *testing.T) {
	// Equal weights: (10, 0, 2) with M=12 → targets 4 each.
	p, err := InitialPolicy([]int{10, 0, 2}, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if p[0][1]+p[0][2] == 0 {
		t.Fatalf("overloaded server 0 should ship: %v", p)
	}
	if p[1][0] != 0 || p[1][2] != 0 || p[2][0] != 0 || p[2][1] != 0 {
		t.Fatalf("deficient servers must not ship: %v", p)
	}
	// Shipments respect the queue.
	if p[0][1]+p[0][2] > 10 {
		t.Fatalf("overdraw: %v", p)
	}
	// Receiving server 1 (deficit 4) gets more than server 2 (deficit 2).
	if p[0][1] <= p[0][2] {
		t.Fatalf("pro-rata violated: %v", p)
	}
}

func TestInitialPolicyWeighted(t *testing.T) {
	// Server 2 twice as fast: target shares 1:2.
	p, err := InitialPolicy([]int{9, 0}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Target for server 2 is 6, so about 6 tasks should move.
	if p[0][1] < 5 || p[0][1] > 6 {
		t.Fatalf("weighted shipment: %v", p)
	}
}

func TestInitialPolicyDegenerate(t *testing.T) {
	// Already balanced: nothing moves.
	p, err := InitialPolicy([]int{4, 4}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if p[0][1] != 0 || p[1][0] != 0 {
		t.Fatalf("balanced system should not move tasks: %v", p)
	}
	if _, err := InitialPolicy([]int{1, 1}, []float64{1}); err == nil {
		t.Fatal("mismatched weights should error")
	}
	if _, err := InitialPolicy([]int{1, 1}, []float64{1, -1}); err == nil {
		t.Fatal("negative weight should error")
	}
	if _, err := InitialPolicy([]int{-1, 1}, []float64{1, 1}); err == nil {
		t.Fatal("negative queue should error")
	}
}

func TestWeightHelpers(t *testing.T) {
	m := model2(dist.NewExponential(2), dist.NewExponential(1), 100, 0, 1)
	sw := SpeedWeights(m)
	if sw[0] != 0.5 || sw[1] != 1 {
		t.Fatalf("speed weights: %v", sw)
	}
	rw := ReliabilityWeights(m)
	if rw[0] != 100 {
		t.Fatalf("reliability weight of failing server: %v", rw)
	}
	if rw[1] <= rw[0] {
		t.Fatalf("reliable server should have the highest weight: %v", rw)
	}
}

// TestWarmSweepPointAllocatesNothing: a sweep's lattice point allocates
// nothing once its transforms (or a screen's weight tables) are cached.
// The point is built per call, inside the closure directEval or
// directScreen returns; neither may be inlined, or direct.Pair's slices
// escape on every sweep point.
func TestWarmSweepPointAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	m := model2(dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1), 0, 0, 1)
	s, err := direct.NewSolver(m, direct.Config{N: 1 << 11, Horizon: 200, MaxQueue: [2]int{24, 24}, MaxFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, fac := range [][2]int{{1, 1}, {2, 1}} {
		for _, obj := range []Objective{ObjMeanTime, ObjQoS, ObjReliability} {
			eval := directEval(s, 16, 8, obj, 40, fac)
			if _, err := eval(5, 2); err != nil {
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(200, func() { _, _ = eval(5, 2) }); allocs > 0 {
				t.Errorf("warm %v point at factors %v allocates %v objects per call, want 0", obj, fac, allocs)
			}
		}
		for _, metric := range []direct.Metric{direct.MetricMean, direct.MetricQoS, direct.MetricReliability} {
			sn, err := s.Screen(metric, 40, fac[:])
			if err != nil {
				t.Fatal(err)
			}
			scr := directScreen(sn, 16, 8, fac, metric == direct.MetricMean)
			for name, f := range map[string]evalFunc{"screened": scr.score, "confirmed": scr.confirm} {
				if _, err := f(5, 2); err != nil {
					t.Fatal(err)
				}
				if allocs := testing.AllocsPerRun(200, func() { _, _ = f(5, 2) }); allocs > 0 {
					t.Errorf("warm %s point, metric %d, factors %v: %v allocations, want 0", name, metric, fac, allocs)
				}
			}
			sn.Release()
		}
	}
}
