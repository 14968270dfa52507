package exper

import (
	"fmt"

	"dtr/dist/fit"
	"dtr/internal/core"
	"dtr/internal/direct"
	"dtr/internal/obs"
	"dtr/internal/policy"
	"dtr/internal/rngutil"
	"dtr/internal/sim"
	"dtr/internal/stat"
	"dtr/internal/testbed"
)

// Fig4AB reproduces Figure 4(a,b): the empirical characterization of the
// testbed's random times. Samples of the server-1 service time and the
// 2→1 task-transfer time are collected from the testbed laws, binned into
// a normalized histogram, fitted by maximum likelihood across the
// candidate families, and ranked by the paper's criterion — minimum total
// squared error between the normalized histogram and the fitted pdf. The
// paper's winners are Pareto (services) and shifted gamma (transfers).
func Fig4AB(fid Fidelity) ([]*Table, error) {
	m := TestbedModel(false)
	r := rngutil.Stream(fid.Seed, 41)

	sample := func(draw func() float64) []float64 {
		xs := make([]float64, fid.FitSamples)
		for i := range xs {
			xs[i] = draw()
		}
		return xs
	}
	mkTable := func(title string, xs []float64) *Table {
		defer obs.StartSpan("fit", "samples", len(xs))()
		t := &Table{
			Title:   title,
			Columns: []string{"Family", "TSE", "KS", "LogLik", "FittedMean", "Fit"},
		}
		for _, row := range fit.RankTSE(xs, fit.PaperFamilies(), 60) {
			t.AddRow(row.Name, fmt.Sprintf("%.3g", row.TSE), f4(row.KS),
				fmt.Sprintf("%.1f", row.LogLik), f3(row.Dist.Mean()), row.Dist.String())
		}
		t.Notes = append(t.Notes,
			fmt.Sprintf("sample: n=%d, mean=%.3f, min=%.3f", len(xs), stat.Mean(xs), stat.Min(xs)))
		return t
	}

	service := sample(func() float64 { return m.Service[0].Sample(r) })
	ta := mkTable("Fig. 4(a): testbed service time of server 1 — fitted pdfs (paper: Pareto, mean 4.858 s)", service)

	transfer := sample(func() float64 { return m.Transfer(1, 1, 0).Sample(r) })
	tb := mkTable("Fig. 4(b): testbed task-transfer time 2→1 — fitted pdfs (paper: shifted gamma; per-task means 1.207 s for 1→2, 0.803 s for 2→1)", transfer)
	return []*Table{ta, tb}, nil
}

// Fig4C reproduces Figure 4(c): the service reliability of the testbed
// workload (m1=50, m2=25; exponential failures with means 300 s and
// 150 s) as a function of L12 with L21 = 0, from three independent
// estimators — the non-Markovian theory (direct solver), Monte-Carlo
// simulation, and the wall-clock message-passing testbed. The paper finds
// the optimum L12 = 26 with predicted reliability 0.6007, simulations in
// remarkable agreement and experiments within 7%.
func Fig4C(fid Fidelity) (*Table, error) {
	m := TestbedModel(false)
	ds, err := direct.NewSolver(m, direct.Config{
		N:        fid.GridN,
		Horizon:  1200,
		MaxQueue: [2]int{TBM1 + TBM2, TBM1 + TBM2},
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:   "Fig. 4(c): testbed service reliability vs L12 (L21=0)",
		Columns: []string{"L12", "Theory", "MC sim", "±95%", "Testbed", "±95%"},
	}

	stride := fid.SweepStride
	if stride < 1 {
		stride = 1
	}
	tbed := &testbed.Testbed{Model: m, Scale: fid.TestbedScale, Seed: fid.Seed + 7}
	for l12 := 0; l12 <= TBM1; l12 += stride * 2 {
		theory, err := ds.Reliability(TBM1, TBM2, l12, 0)
		if err != nil {
			return nil, err
		}
		est, err := sim.Estimate(m, []int{TBM1, TBM2}, core.Policy2(l12, 0), sim.Options{
			Reps: fid.MCReps, Seed: fid.Seed + uint64(l12), Workers: fid.Workers,
		})
		if err != nil {
			return nil, err
		}
		completed := 0
		for rep := 0; rep < fid.TestbedReps; rep++ {
			out, err := tbed.Run([]int{TBM1, TBM2}, core.Policy2(l12, 0), l12*1000+rep)
			if err != nil {
				return nil, err
			}
			if out.Completed {
				completed++
			}
		}
		tbRel, tbHalf := stat.ProportionCI(completed, fid.TestbedReps, 0.95)
		t.AddRow(fmt.Sprintf("%d", l12), f4(theory), f4(est.Reliability),
			f4(est.ReliabilityHalf), f4(tbRel), f4(tbHalf))
	}

	best, err := policy.Optimize2(ds, TBM1, TBM2, policy.ObjReliability, policy.Options2{Workers: fid.Workers})
	if err != nil {
		return nil, err
	}
	noReal, err := ds.Reliability(TBM1, TBM2, 0, 0)
	if err != nil {
		return nil, err
	}
	drop := 0.0
	if best.Value > 0 {
		drop = 100 * (best.Value - noReal) / best.Value
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("optimal policy: L12=%d, L21=%d, theoretical reliability %.4f (paper: L12=26, 0.6007)",
			best.L12, best.L21, best.Value),
		fmt.Sprintf("no reallocation loses %.1f%% reliability (paper: ~15%%)", drop))
	return t, nil
}

// Fig4COptimum returns just the reliability-optimal testbed policy, the
// optimum Fig4C reports (TestFig4COptimum pins it).
func Fig4COptimum(fid Fidelity) (policy.Result2, error) {
	m := TestbedModel(false)
	ds, err := direct.NewSolver(m, direct.Config{
		N:        fid.GridN,
		Horizon:  1200,
		MaxQueue: [2]int{TBM1 + TBM2, TBM1 + TBM2},
	})
	if err != nil {
		return policy.Result2{}, err
	}
	return policy.Optimize2(ds, TBM1, TBM2, policy.ObjReliability, policy.Options2{Workers: fid.Workers})
}
