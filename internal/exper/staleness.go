package exper

import (
	"fmt"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/estimate"
	"dtr/internal/policy"
	"dtr/internal/sim"
	"dtr/internal/stat"
)

// Staleness (XE-1) quantifies the premise of the paper's problem
// statement: DTR decisions rest on queue-length estimates "constructed
// using possibly dated and/or incomplete information on the servers'
// states". The five-server system serves through a warm-up window while
// exchanging queue-length packets whose network delay we sweep; at
// decision time each server runs Algorithm 1 with its dated estimates,
// and the resulting policy is evaluated by simulation from the *true*
// queues. The gap to the perfect-information policy is the price of
// staleness.
func Staleness(fid Fidelity) (*Table, error) {
	m := Table2Model(dist.FamilyPareto1, true)
	const warmup = 40.0
	const period = 2.0

	t := &Table{
		Title: fmt.Sprintf("XE-1: Algorithm 1 under dated queue-length information (warmup %.0f s, packets every %.0f s)", warmup, period),
		Columns: []string{
			"packet delay mean (s)", "mean staleness (s)", "max est err (tasks)",
			"simulated T̄", "±95%", "loss vs perfect (%)",
		},
	}

	// A handful of snapshot realizations per delay level suffices: the
	// policy computation (two Algorithm-1 runs per snapshot) dominates
	// the cost, while the metric evaluation averages over MCReps total.
	reps := max(3, fid.MCReps/500)
	evalReps := fid.MCReps

	for _, delayMean := range []float64{0, 2, 8, 24} {
		ex := &estimate.Exchange{Model: m, Period: period, Seed: fid.Seed + 17}
		if delayMean > 0 {
			dm := delayMean
			ex.PacketDelay = func(src, dst int) dist.Dist {
				return dist.FamilyPareto1.WithMean(dm)
			}
		}

		var meanTimes, perfectTimes, stalenesses []float64
		maxErr := 0
		for rep := 0; rep < reps; rep++ {
			snap, err := ex.Take(Table2Initial, warmup, rep)
			if err != nil {
				return nil, err
			}
			stalenesses = append(stalenesses, snap.MeanStaleness())
			if e := snap.MaxAbsError(); e > maxErr {
				maxErr = e
			}

			stale, err := policy.Algorithm1(m, snap.Queues, policy.Alg1Options{
				Objective: policy.ObjMeanTime, K: 3, GridN: fid.Alg1GridN,
				Estimates: snap.Estimates, Workers: fid.Workers,
			})
			if err != nil {
				return nil, err
			}
			perfect, err := policy.Algorithm1(m, snap.Queues, policy.Alg1Options{
				Objective: policy.ObjMeanTime, K: 3, GridN: fid.Alg1GridN,
				Workers: fid.Workers,
			})
			if err != nil {
				return nil, err
			}
			estStale, err := sim.Estimate(m, snap.Queues, stale, sim.Options{
				Reps: evalReps / reps, Seed: fid.Seed + uint64(rep), Workers: fid.Workers,
			})
			if err != nil {
				return nil, err
			}
			estPerfect, err := sim.Estimate(m, snap.Queues, perfect, sim.Options{
				Reps: evalReps / reps, Seed: fid.Seed + uint64(rep) + 1000, Workers: fid.Workers,
			})
			if err != nil {
				return nil, err
			}
			meanTimes = append(meanTimes, estStale.MeanTime)
			perfectTimes = append(perfectTimes, estPerfect.MeanTime)
		}
		mt, half := stat.MeanCI(meanTimes, 0.95)
		pt := stat.Mean(perfectTimes)
		loss := 100 * (mt - pt) / pt
		t.AddRow(f2(delayMean), f2(stat.Mean(stalenesses)), fmt.Sprintf("%d", maxErr),
			f2(mt), f3(half), f2(loss))
	}
	t.Notes = append(t.Notes,
		"stale policies are devised from each server's dated view; perfect policies from the true queues",
		"both are evaluated by simulation from the true post-warmup state")
	return t, nil
}

// buildPolicyFromState is a test hook exposing Algorithm 1 with dated
// estimates on an arbitrary state.
func buildPolicyFromState(m *core.Model, snap *estimate.Snapshot, gridN int) (core.Policy, error) {
	return policy.Algorithm1(m, snap.Queues, policy.Alg1Options{
		Objective: policy.ObjMeanTime, K: 3, GridN: gridN,
		Estimates: snap.Estimates,
	})
}
