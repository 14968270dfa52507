package exper

import (
	"fmt"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/policy"
	"dtr/internal/sim"
)

// Table2 reproduces Table II: the five-server DCS of §III-A2 under severe
// network delay. For each non-exponential model the table reports, by
// Monte-Carlo simulation with 95% confidence intervals:
//
//   - the metric under the Algorithm-1 policy devised with the true
//     (non-Markovian) model;
//   - the metric under the Algorithm-1 policy devised with the
//     exponential (Markovian) approximation — the paper finds 5–45%
//     relative errors from using the wrong model;
//   - a benchmark: the metric when the workload *starts* in the best
//     allocation found by search (the paper's "initial allocation is the
//     optimal allocation" row).
//
// reliable=true produces the mean-execution-time half of the table,
// reliable=false the service-reliability half.
func Table2(reliable bool, fid Fidelity) (*Table, error) {
	metric := "service reliability"
	obj := policy.ObjReliability
	if reliable {
		metric = "mean execution time"
		obj = policy.ObjMeanTime
	}
	t := &Table{
		Title: fmt.Sprintf("Table II (severe delay, 5 servers, M=200): %s", metric),
		Columns: []string{
			"Model", "Alg1(non-Markov)", "±95%", "Alg1(Exponential)", "±95%",
			"ExpModelPredicts", "predErr(%)", "Benchmark(opt alloc)", "±95%",
		},
	}

	families := []dist.Family{
		dist.FamilyPareto1, dist.FamilyPareto2, dist.FamilyShiftedExp, dist.FamilyUniform,
	}

	// The exponential-derived policy is computed once: Algorithm 1 on the
	// all-exponential model with matched means.
	expModel := Table2Model(dist.FamilyExponential, reliable)
	expPolicy, err := policy.Algorithm1(expModel, Table2Initial, policy.Alg1Options{
		Objective: obj, K: 3, GridN: fid.Alg1GridN, Workers: fid.Workers,
	})
	if err != nil {
		return nil, err
	}
	// What the Markovian model *predicts* its policy achieves: the same
	// policy evaluated under the all-exponential dynamics. The paper's
	// 5–45% errors are the gap between this prediction and the value
	// measured under the true (non-exponential) model.
	estPred, err := sim.Estimate(expModel, Table2Initial, expPolicy, sim.Options{
		Reps: fid.MCReps, Seed: fid.Seed + 400, Workers: fid.Workers,
	})
	if err != nil {
		return nil, err
	}

	pick := func(e sim.Estimates) (float64, float64) {
		if reliable {
			return e.MeanTime, e.MeanTimeHalf
		}
		return e.Reliability, e.ReliabilityHalf
	}

	for _, f := range families {
		m := Table2Model(f, reliable)

		truePolicy, err := policy.Algorithm1(m, Table2Initial, policy.Alg1Options{
			Objective: obj, K: 3, GridN: fid.Alg1GridN, Workers: fid.Workers,
		})
		if err != nil {
			return nil, err
		}
		estTrue, err := sim.Estimate(m, Table2Initial, truePolicy, sim.Options{
			Reps: fid.MCReps, Seed: fid.Seed + 100, Workers: fid.Workers,
		})
		if err != nil {
			return nil, err
		}
		estExp, err := sim.Estimate(m, Table2Initial, expPolicy, sim.Options{
			Reps: fid.MCReps, Seed: fid.Seed + 200, Workers: fid.Workers,
		})
		if err != nil {
			return nil, err
		}

		// Benchmark: best initial allocation, no transfers needed.
		ev, err := policy.NewAllocationEvaluator(m, 200, fid.Alg1GridN)
		if err != nil {
			return nil, err
		}
		bestAlloc, _, err := policy.SearchBestAllocation(ev, 200, obj, fid.SearchRestarts, fid.Seed)
		if err != nil {
			return nil, err
		}
		estBench, err := sim.Estimate(m, bestAlloc, core.NewPolicy(5), sim.Options{
			Reps: fid.MCReps, Seed: fid.Seed + 300, Workers: fid.Workers,
		})
		if err != nil {
			return nil, err
		}

		vTrue, hTrue := pick(estTrue)
		vExp, hExp := pick(estExp)
		vPred, _ := pick(estPred)
		vBench, hBench := pick(estBench)
		predErr := 0.0
		if vExp != 0 {
			predErr = 100 * abs(vPred-vExp) / vExp
		}
		t.AddRow(f.String(), f2(vTrue), f3(hTrue), f2(vExp), f3(hExp),
			f2(vPred), f2(predErr), f2(vBench), f3(hBench))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("initial allocation %v (the paper prints only M=200; see DESIGN.md §4)", Table2Initial),
		"Alg1(Exponential) = Algorithm-1 policy devised under the Markovian approximation, evaluated on the true model",
		"predErr(%) = |Markovian prediction − value measured on the true model| / measured (the paper's 5–45% errors)",
		"Benchmark = workload starts in the best allocation found by search; no reallocation traffic")
	return t, nil
}
