package exper

import (
	"fmt"

	"dtr/dist"
	"dtr/internal/direct"
	"dtr/internal/obs"
	"dtr/internal/par"
)

// sweepL12 runs fn over the figure sweep's L12 values on the fidelity's
// worker pool and returns the per-point results in sweep order. The
// direct solvers the callbacks share are concurrency-safe, and each
// result lands in its own slot, so the assembled rows match the serial
// sweep exactly.
func sweepL12[T any](fid Fidelity, stride int, fn func(l12 int) (T, error)) ([]T, error) {
	var pts []int
	for l12 := 0; l12 <= M1; l12 += stride {
		pts = append(pts, l12)
	}
	out := make([]T, len(pts))
	err := par.ForEach(par.Workers(fid.Workers), len(pts), func(_, i int) error {
		v, err := fn(pts[i])
		out[i] = v
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// newCanonicalSolver builds a direct solver for the canonical scenario
// under one family and delay condition.
func newCanonicalSolver(f dist.Family, d Delay, reliable bool, fid Fidelity) (*direct.Solver, error) {
	m := CanonicalModel(f, d, reliable)
	return direct.NewSolver(m, direct.Config{
		N:        fid.GridN,
		Horizon:  d.Horizon(),
		MaxQueue: [2]int{M1 + M2, M1 + M2},
	})
}

// canonicalMetric is what Figs. 1 and 2 plot at (L12, Fig12L21): the
// mean execution time of the reliable workload, or the service
// reliability of the failure-prone one.
func canonicalMetric(s *direct.Solver, reliable bool, l12 int) (float64, error) {
	if reliable {
		return s.MeanTime(M1, M2, l12, Fig12L21)
	}
	return s.Reliability(M1, M2, l12, Fig12L21)
}

// Fig12 reproduces Figure 1 (reliable: the mean execution time) or
// Figure 2 (the service reliability under exponential failures, means
// 1000 s and 500 s) of the canonical workload as a function of L12 with
// L21 = 25 fixed, for every stochastic model, under one delay condition.
// The Exponential column is simultaneously the Markovian approximation of
// every other column (matched means), which is exactly the comparison the
// figures make.
func Fig12(d Delay, reliable bool, fid Fidelity) (*Table, error) {
	fig, metric, cell := 2, "service reliability", f4
	if reliable {
		fig, metric, cell = 1, "mean execution time", f2
	}
	families := dist.PaperFamilies()
	t := &Table{
		Title:   fmt.Sprintf("Fig. %d (%s delay): %s vs L12 (L21=%d)", fig, d, metric, Fig12L21),
		Columns: []string{"L12"},
	}
	solvers := make([]*direct.Solver, len(families))
	for i, f := range families {
		t.Columns = append(t.Columns, f.String())
		s, err := newCanonicalSolver(f, d, reliable, fid)
		if err != nil {
			return nil, err
		}
		solvers[i] = s
	}
	defer obs.StartSpan("sweep", "experiment", fmt.Sprintf("fig%d", fig), "delay", d.String())()
	rows, err := sweepL12(fid, fid.SweepStride, func(l12 int) ([]string, error) {
		row := []string{fmt.Sprintf("%d", l12)}
		for _, s := range solvers {
			v, err := canonicalMetric(s, reliable, l12)
			if err != nil {
				return nil, err
			}
			row = append(row, cell(v))
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	if reliable {
		t.Notes = append(t.Notes,
			"Exponential column = the Markovian approximation of every model (matched means)")
	}
	return t, nil
}

// MarkovianError summarizes Figs. 1–2 the way the paper's text does: the
// maximum relative error of the Markovian (Exponential) approximation
// against each non-exponential model over the policy sweep.
func MarkovianError(d Delay, reliable bool, fid Fidelity) (*Table, error) {
	families := dist.PaperFamilies()
	metric := "reliability"
	if reliable {
		metric = "mean execution time"
	}
	t := &Table{
		Title:   fmt.Sprintf("Markovian approximation error (%s delay, %s)", d, metric),
		Columns: []string{"Model", "MaxRelErr(%)"},
	}
	expSolver, err := newCanonicalSolver(dist.FamilyExponential, d, reliable, fid)
	if err != nil {
		return nil, err
	}
	for _, f := range families[1:] {
		s, err := newCanonicalSolver(f, d, reliable, fid)
		if err != nil {
			return nil, err
		}
		worst, err := maxRelErr(fid, fid.SweepStride, s, expSolver, reliable)
		if err != nil {
			return nil, err
		}
		t.AddRow(f.String(), f2(worst))
	}
	return t, nil
}

// maxRelErr is the largest relative error, in percent, of the Markovian
// solver's canonical metric against the true model's over the L12 sweep
// at the stride; points where the truth is about 0 (or NaN) count as no
// error.
func maxRelErr(fid Fidelity, stride int, truth, markov *direct.Solver, reliable bool) (float64, error) {
	relErrs, err := sweepL12(fid, stride, func(l12 int) (float64, error) {
		tv, err := canonicalMetric(truth, reliable, l12)
		if err != nil {
			return 0, err
		}
		approx, err := canonicalMetric(markov, reliable, l12)
		if err != nil || !(tv > 1e-9) {
			return 0, err
		}
		return 100 * abs(approx-tv) / tv, nil
	})
	var worst float64
	for _, e := range relErrs {
		if e > worst {
			worst = e
		}
	}
	return worst, err
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
