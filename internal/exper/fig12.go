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
func sweepL12(fid Fidelity, stride int, fn func(l12 int) ([]string, error)) ([][]string, error) {
	var pts []int
	for l12 := 0; l12 <= M1; l12 += stride {
		pts = append(pts, l12)
	}
	rows := make([][]string, len(pts))
	err := par.ForEach(par.Workers(fid.Workers), len(pts), func(_, i int) error {
		row, err := fn(pts[i])
		if err != nil {
			return err
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
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

// Fig1 reproduces Figure 1: the mean execution time of the canonical
// workload as a function of L12 (with L21 = 25 fixed), for every
// stochastic model, under one delay condition. The Exponential column is
// simultaneously the Markovian approximation of every other column
// (matched means), which is exactly the comparison the figure makes.
func Fig1(d Delay, fid Fidelity) (*Table, error) {
	families := dist.PaperFamilies()
	t := &Table{
		Title:   fmt.Sprintf("Fig. 1 (%s delay): mean execution time vs L12 (L21=%d)", d, Fig12L21),
		Columns: []string{"L12"},
	}
	for _, f := range families {
		t.Columns = append(t.Columns, f.String())
	}
	solvers := make([]*direct.Solver, len(families))
	for i, f := range families {
		s, err := newCanonicalSolver(f, d, true, fid)
		if err != nil {
			return nil, err
		}
		solvers[i] = s
	}
	defer obs.StartSpan("sweep", "experiment", "fig1", "delay", d.String())()
	rows, err := sweepL12(fid, fid.SweepStride, func(l12 int) ([]string, error) {
		row := []string{fmt.Sprintf("%d", l12)}
		for _, s := range solvers {
			v, err := s.MeanTime(M1, M2, l12, Fig12L21)
			if err != nil {
				return nil, err
			}
			row = append(row, f2(v))
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"Exponential column = the Markovian approximation of every model (matched means)")
	return t, nil
}

// Fig2 reproduces Figure 2: the service reliability of the canonical
// workload (exponential failures, means 1000 s and 500 s) versus L12 with
// L21 = 25, per model and delay condition.
func Fig2(d Delay, fid Fidelity) (*Table, error) {
	families := dist.PaperFamilies()
	t := &Table{
		Title:   fmt.Sprintf("Fig. 2 (%s delay): service reliability vs L12 (L21=%d)", d, Fig12L21),
		Columns: []string{"L12"},
	}
	for _, f := range families {
		t.Columns = append(t.Columns, f.String())
	}
	solvers := make([]*direct.Solver, len(families))
	for i, f := range families {
		s, err := newCanonicalSolver(f, d, false, fid)
		if err != nil {
			return nil, err
		}
		solvers[i] = s
	}
	defer obs.StartSpan("sweep", "experiment", "fig2", "delay", d.String())()
	rows, err := sweepL12(fid, fid.SweepStride, func(l12 int) ([]string, error) {
		row := []string{fmt.Sprintf("%d", l12)}
		for _, s := range solvers {
			v, err := s.Reliability(M1, M2, l12, Fig12L21)
			if err != nil {
				return nil, err
			}
			row = append(row, f4(v))
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
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
	eval := func(s *direct.Solver, l12 int) (float64, error) {
		if reliable {
			return s.MeanTime(M1, M2, l12, Fig12L21)
		}
		return s.Reliability(M1, M2, l12, Fig12L21)
	}
	for _, f := range families[1:] {
		s, err := newCanonicalSolver(f, d, reliable, fid)
		if err != nil {
			return nil, err
		}
		var pts []int
		for l12 := 0; l12 <= M1; l12 += fid.SweepStride {
			pts = append(pts, l12)
		}
		relErrs := make([]float64, len(pts))
		if err := par.ForEach(par.Workers(fid.Workers), len(pts), func(_, i int) error {
			truth, err := eval(s, pts[i])
			if err != nil {
				return err
			}
			approx, err := eval(expSolver, pts[i])
			if err != nil {
				return err
			}
			if truth > 1e-9 {
				relErrs[i] = 100 * abs(approx-truth) / truth
			}
			return nil
		}); err != nil {
			return nil, err
		}
		var worst float64
		for _, e := range relErrs {
			if e > worst {
				worst = e
			}
		}
		t.AddRow(f.String(), f2(worst))
	}
	return t, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
