package direct_test

import (
	"math"
	"testing"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/direct"
	"dtr/internal/exper"
)

// TestMeanTimeReplMatchesReference: the tail-excess estimate reads one
// task's law and its mean from the chain, where it used to build the law
// and integrate its mean at every point. Same function, same inputs: the
// mean must come out bit for bit as before, at every factor pair and on
// a grid of points, on a Pareto model and on the §III-B testbed model.
func TestMeanTimeReplMatchesReference(t *testing.T) {
	pareto := &core.Model{
		Service: []dist.Dist{dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1)},
		Failure: []dist.Dist{dist.Never{}, dist.Never{}},
		Transfer: func(tasks, src, dst int) dist.Dist {
			return dist.NewExponential(float64(tasks))
		},
	}
	cases := []struct {
		name    string
		model   *core.Model
		m1, m2  int
		horizon float64
	}{
		{"pareto", pareto, 16, 8, 200},
		{"testbed", exper.TestbedModel(true), exper.TBM1, exper.TBM2, 1200},
	}
	for _, tc := range cases {
		maxQ := tc.m1 + tc.m2
		s, err := direct.NewSolver(tc.model, direct.Config{N: 1 << 10, Horizon: tc.horizon, MaxQueue: [2]int{maxQ, maxQ}, MaxFactor: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, fac := range [][2]int{{1, 2}, {2, 1}, {2, 2}} {
			for l12 := 0; l12 <= tc.m1; l12 += tc.m1 / 4 {
				for l21 := 0; l21 <= tc.m2; l21 += tc.m2 / 4 {
					got, err := s.Eval(direct.Pair(tc.m1, tc.m2, l12, l21, fac[:]), direct.MetricMean, 0)
					if err != nil {
						t.Fatal(err)
					}
					want, err := direct.ReferenceMeanTimeRepl(s, tc.m1, tc.m2, l12, l21, fac)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s (%d, %d) at factors %v: mean %v, reference %v", tc.name, l12, l21, fac, got, want)
					}
				}
			}
		}
	}
}
