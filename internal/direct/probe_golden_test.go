package direct_test

import (
	"math"
	"testing"

	"dtr/internal/direct"
	"dtr/internal/exper"
)

// TestProbeUpperBoundsGridError is the golden test of the half-resolution
// error probe: on the paper's §III-B testbed model the probe's
// coarse-vs-fine estimate must upper-bound the true deviation of the
// working grid from a much finer reference grid. With first-order (or
// better) convergence e_N ∝ N^{-p}, |f_N − f_{N/2}| ≈ (2^p − 1)·e_N ≥
// e_N ≥ |f_N − f_ref|, so the probe is a conservative error estimate by
// construction; SLACK absorbs the approximation in the ≈ steps.
func TestProbeUpperBoundsGridError(t *testing.T) {
	const (
		horizon = 1200.0
		refN    = 1 << 13
		tm      = 300.0
		slack   = 1.10 // probe·slack must cover the true deviation
	)
	m := exper.TestbedModel(true)
	maxQ := [2]int{exper.TBM1 + exper.TBM2, exper.TBM1 + exper.TBM2}

	ref, err := direct.NewSolver(m, direct.Config{N: refN, Horizon: horizon, MaxQueue: maxQ})
	if err != nil {
		t.Fatal(err)
	}

	policies := [][2]int{{0, 0}, {21, 0}, {10, 5}}
	for _, n := range []int{512, 2048} {
		s, err := direct.NewSolver(m, direct.Config{N: n, Horizon: horizon, MaxQueue: maxQ})
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range policies {
			l12, l21 := pol[0], pol[1]
			pt := direct.Pair(exper.TBM1, exper.TBM2, l12, l21, nil)
			pr, err := s.ProbeGridError(pt, tm)
			if err != nil {
				t.Fatal(err)
			}
			wantMean, err := ref.Eval(pt, direct.MetricMean, 0)
			if err != nil {
				t.Fatal(err)
			}
			wantQoS, err := ref.Eval(pt, direct.MetricQoS, tm)
			if err != nil {
				t.Fatal(err)
			}
			trueMean := math.Abs(pr.Fine.Mean - wantMean)
			trueQoS := math.Abs(pr.Fine.QoS - wantQoS)
			t.Logf("n=%d policy=(%d,%d): probe mean=%.4g qos=%.4g | true mean=%.4g qos=%.4g",
				n, l12, l21, pr.MeanErr, pr.QoSErr, trueMean, trueQoS)
			if pr.MeanErr*slack < trueMean {
				t.Errorf("n=%d policy=(%d,%d): probe mean error %.6g does not cover true deviation %.6g",
					n, l12, l21, pr.MeanErr, trueMean)
			}
			if pr.QoSErr*slack < trueQoS {
				t.Errorf("n=%d policy=(%d,%d): probe QoS error %.6g does not cover true deviation %.6g",
					n, l12, l21, pr.QoSErr, trueQoS)
			}
		}
	}
}
