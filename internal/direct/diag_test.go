package direct

import (
	"math"
	"testing"

	"dtr/dist"
)

func TestDiagnosticsPopulated(t *testing.T) {
	m := model2(dist.NewExponential(2), dist.NewExponential(1), 40, 25, 1)
	s := newSolver(t, m, 12, 1<<12, 200)

	d0 := s.Diagnostics()
	if d0.GridN != 1<<12 || d0.Dx != s.Dx() || d0.Horizon != s.horizon() {
		t.Fatalf("geometry wrong: %+v", d0)
	}
	if d0.BuildFolds == 0 {
		t.Fatal("construction-phase folds not audited")
	}
	if d0.Folds != 0 || d0.Evaluations != 0 {
		t.Fatalf("fresh solver reports solve-phase work: %+v", d0)
	}

	if _, err := s.metrics(Pair(6, 4, 3, 1, nil), 15); err != nil {
		t.Fatal(err)
	}
	d1 := s.Diagnostics()
	if d1.Folds == 0 {
		t.Fatal("solve-phase folds not counted")
	}
	if d1.Evaluations != 1 {
		t.Fatalf("evaluations = %d, want 1", d1.Evaluations)
	}
	// A well-resolved exponential model conserves mass to round-off.
	if d1.MassResidualMax > 1e-9 {
		t.Fatalf("mass residual too large: %g", d1.MassResidualMax)
	}
	if d1.NegMassMax > 1e-9 {
		t.Fatalf("negative mass too large: %g", d1.NegMassMax)
	}
	if d1.TailMassMax <= 0 || d1.TailMassMax > 0.01 {
		t.Fatalf("tail mass out of range: %g", d1.TailMassMax)
	}

	if _, err := s.metrics(Pair(6, 4, 3, 1, nil), 15); err != nil {
		t.Fatal(err)
	}
	if d2 := s.Diagnostics(); d2.Evaluations != d1.Evaluations+1 {
		t.Fatalf("evaluations = %d after a second evaluation, want %d", d2.Evaluations, d1.Evaluations+1)
	}
}

// TestErrorProbeBitNeutral: running the probe must not change any
// metric bit — the shadow solver only reads, never writes.
func TestErrorProbeBitNeutral(t *testing.T) {
	// Reliable model so Mean is a number and Metrics compares with ==.
	m := model2(dist.NewExponential(2), dist.NewExponential(1), 0, 0, 1)
	plain := newSolver(t, m, 10, 1<<12, 200)
	probed := newSolver(t, m, 10, 1<<12, 200)
	for _, pol := range [][4]int{{5, 3, 0, 0}, {5, 3, 2, 1}, {6, 4, 3, 0}} {
		a, err := plain.metrics(Pair(pol[0], pol[1], pol[2], pol[3], nil), 15)
		if err != nil {
			t.Fatal(err)
		}
		b, err := probed.metrics(Pair(pol[0], pol[1], pol[2], pol[3], nil), 15)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("policy %v: metrics differ before the probe:\n%+v\n%+v", pol, a, b)
		}
	}
	// Running the probe itself must leave subsequent results unchanged.
	if _, err := probed.ProbeGridError(Pair(5, 3, 2, 1, nil), 15); err != nil {
		t.Fatal(err)
	}
	a, _ := plain.metrics(Pair(6, 4, 3, 0, nil), 15)
	b, _ := probed.metrics(Pair(6, 4, 3, 0, nil), 15)
	if a != b {
		t.Fatalf("metrics differ after probe run:\n%+v\n%+v", a, b)
	}
}

func TestProbeGridError(t *testing.T) {
	m := model2(dist.NewExponential(2), dist.NewExponential(1), 0, 0, 1)

	p := newSolver(t, m, 10, 1<<12, 200)
	pr, err := p.ProbeGridError(Pair(5, 3, 2, 1, nil), 15)
	if err != nil {
		t.Fatal(err)
	}
	// The shadow is built lazily on the first probe: a solver that has
	// already evaluated probes too, and answers the same.
	s := newSolver(t, m, 10, 1<<12, 200)
	if _, err := s.MeanTime(5, 3, 2, 1); err != nil {
		t.Fatal(err)
	}
	if got, err := s.ProbeGridError(Pair(5, 3, 2, 1, nil), 15); err != nil {
		t.Fatalf("probe after an evaluation: %v", err)
	} else if *got != *pr {
		t.Fatalf("probe differs after an evaluation:\n%+v\n%+v", got, pr)
	}
	if pr.CoarseN != 1<<11 {
		t.Fatalf("coarse grid %d, want %d", pr.CoarseN, 1<<11)
	}
	want, err := p.metrics(Pair(5, 3, 2, 1, nil), 15)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Fine != want {
		t.Fatalf("probe Fine != solver metrics:\n%+v\n%+v", pr.Fine, want)
	}
	for _, e := range []float64{pr.MeanErr, pr.QoSErr, pr.ReliabilityErr} {
		if e < 0 || math.IsNaN(e) {
			t.Fatalf("bad probe error %g (probe: %+v)", e, pr)
		}
	}
	// The grids genuinely differ, so some metric must move a little —
	// but a resolution halving on a well-resolved model stays small.
	if pr.MeanErr == 0 && pr.QoSErr == 0 && pr.ReliabilityErr == 0 {
		t.Fatal("probe reports zero error on every metric; shadow solver suspicious")
	}
	if pr.MeanErr > 0.5 || pr.QoSErr > 0.1 || pr.ReliabilityErr > 0.1 {
		t.Fatalf("probe errors implausibly large: %+v", pr)
	}
}
