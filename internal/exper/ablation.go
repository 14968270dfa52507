package exper

import (
	"fmt"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/direct"
	"dtr/internal/policy"
	"dtr/internal/sim"
)

// AblationGridStep (XA-1) quantifies the age-grid discretization error of
// the regeneration solver: a small Pareto workload is solved at a range
// of steps and compared against the exact convolution solver. The error
// must shrink as the step does — the empirical convergence claim behind
// using the grid recursion as "the" non-Markovian solver.
func AblationGridStep(fid Fidelity) (*Table, error) {
	m := &core.Model{
		Service: []dist.Dist{dist.NewPareto(2.5, 1), dist.NewUniform(0.4, 1.2)},
		Failure: []dist.Dist{dist.Never{}, dist.Never{}},
		Transfer: func(tasks, src, dst int) dist.Dist {
			return dist.NewPareto(2.5, 0.8*float64(tasks))
		},
	}
	ds, err := direct.NewSolver(m, direct.Config{N: 1 << 12, Horizon: 60, MaxQueue: [2]int{8, 8}})
	if err != nil {
		return nil, err
	}
	ref, err := ds.MeanTime(3, 2, 1, 0)
	if err != nil {
		return nil, err
	}
	st, err := core.NewState(m, []int{3, 2}, core.Policy2(1, 0))
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:   "XA-1: regeneration-solver age-grid convergence (mean time, 3+2 Pareto tasks)",
		Columns: []string{"Step h", "T̄(h)", "abs err vs exact", "memo states"},
	}
	steps := []float64{0.4, 0.2, 0.1, 0.05}
	if fid.Name == "quick" {
		steps = []float64{0.4, 0.2, 0.1}
	}
	for _, h := range steps {
		sv, err := core.NewSolver(m)
		if err != nil {
			return nil, err
		}
		sv.Step = h
		sv.Horizon = 60
		sv.AgeCap = 20
		got, err := sv.MeanTime(st)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.2f", h), f4(got), f4(abs(got-ref)), fmt.Sprintf("%d", sv.States()))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("exact (convolution solver): %.4f", ref))
	return t, nil
}

// AblationK (XA-2) sweeps Algorithm 1's iteration budget K on the Table II
// scenario and reports the simulated mean execution time of the resulting
// policy — how quickly the pairwise decomposition reaches its fixed point.
func AblationK(fid Fidelity) (*Table, error) {
	m := Table2Model(dist.FamilyPareto1, true)
	t := &Table{
		Title:   "XA-2: Algorithm 1 iteration budget K (Pareto 1, severe delay, mean time)",
		Columns: []string{"K", "simulated T̄", "±95%", "tasks moved"},
	}
	ks := []int{1, 2, 3, 5}
	for _, k := range ks {
		p, err := policy.Algorithm1(m, Table2Initial, policy.Alg1Options{
			Objective: policy.ObjMeanTime, K: k, GridN: fid.Alg1GridN, Workers: fid.Workers,
		})
		if err != nil {
			return nil, err
		}
		moved := 0
		for i := range p {
			for j := range p[i] {
				moved += p[i][j]
			}
		}
		est, err := sim.Estimate(m, Table2Initial, p, sim.Options{Reps: fid.MCReps, Seed: fid.Seed + uint64(k), Workers: fid.Workers})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", k), f2(est.MeanTime), f3(est.MeanTimeHalf), fmt.Sprintf("%d", moved))
	}
	return t, nil
}

// AblationDelaySweep (XA-3) generalizes Figs. 1–2: the worst-case relative
// error of the Markovian approximation against the Pareto-1 model as the
// per-task transfer mean sweeps from below the low-delay setting to past
// the severe one. The error must grow with the delay, the paper's central
// qualitative finding.
func AblationDelaySweep(fid Fidelity) (*Table, error) {
	t := &Table{
		Title:   "XA-3: Markovian approximation error vs network delay (Pareto 1, reliability)",
		Columns: []string{"per-task transfer mean (s)", "max rel err (%)"},
	}
	for _, c := range []float64{0.5, 1.0, 2.0, 3.3, 5.0} {
		build := func(f dist.Family) (*direct.Solver, error) {
			m := &core.Model{
				Service: []dist.Dist{f.WithMean(ServiceMean1), f.WithMean(ServiceMean2)},
				Failure: []dist.Dist{dist.NewExponential(FailMean1), dist.NewExponential(FailMean2)},
				Transfer: func(tasks, src, dst int) dist.Dist {
					if tasks < 1 {
						tasks = 1
					}
					return f.WithMean(c * float64(tasks))
				},
			}
			return direct.NewSolver(m, direct.Config{
				N: fid.GridN, Horizon: HorizonSevere, MaxQueue: [2]int{M1 + M2, M1 + M2},
			})
		}
		sTrue, err := build(dist.FamilyPareto1)
		if err != nil {
			return nil, err
		}
		sExp, err := build(dist.FamilyExponential)
		if err != nil {
			return nil, err
		}
		worst, err := maxRelErr(fid, fid.SweepStride*2, sTrue, sExp, false)
		if err != nil {
			return nil, err
		}
		t.AddRow(f2(c), f2(worst))
	}
	return t, nil
}
