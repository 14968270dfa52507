package policy

import (
	"fmt"

	"dtr/internal/core"
	"dtr/internal/direct"
	"dtr/internal/rngutil"
)

// AllocationMetrics are the metrics of an initial allocation with no
// reallocation traffic: each server k independently serves alloc[k] tasks,
// so F_k = S_{alloc[k]} and the metrics factor exactly. This is the
// analytic form of Table II's benchmark row, where the workload starts in
// the optimal allocation and no transfers are needed.
type AllocationMetrics = direct.Metrics

// AllocationEvaluator evaluates allocations repeatedly on one set of
// per-server service-sum laws (the benchmark search's inner loop). An
// allocation with no transfers is the n-server scenario under the zero
// policy, where the batch-arrival bounds are exact, so the evaluator is
// a view of the canonical solver asked for its optimistic side.
type AllocationEvaluator struct {
	model *core.Model
	sv    *direct.Solver
	stay  core.Policy
}

// NewAllocationEvaluator builds the evaluator; maxPer bounds the tasks
// any single server may be assigned. A zero horizon covers 2.5× the
// slowest server's mean time for maxPer tasks — service only, there are
// no transfers to wait for.
func NewAllocationEvaluator(m *core.Model, maxPer int, gridN int, horizon float64) (*AllocationEvaluator, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if maxPer <= 0 {
		return nil, fmt.Errorf("policy: maxPer must be positive")
	}
	if horizon == 0 {
		worst := 0.0
		for _, d := range m.Service {
			if w := float64(maxPer) * d.Mean(); w > worst {
				worst = w
			}
		}
		horizon = 2.5 * worst
	}
	sv, err := direct.NewSolver(m, direct.Config{N: gridN, Horizon: horizon, MaxQueue: [2]int{maxPer, maxPer}})
	if err != nil {
		return nil, err
	}
	return &AllocationEvaluator{model: m, sv: sv, stay: core.NewPolicy(m.N())}, nil
}

// Evaluate computes the metrics of an allocation (deadline 0 skips QoS).
func (ev *AllocationEvaluator) Evaluate(alloc []int, deadline float64) (AllocationMetrics, error) {
	b, err := ev.sv.Bounds(direct.Point{Initial: alloc, Policy: ev.stay}, deadline)
	return b.Optimistic, err
}

// SearchBestAllocation looks for the allocation of M tasks over the
// model's servers that optimizes the objective, reproducing the paper's
// Monte-Carlo benchmark search — here driven by the analytic evaluator,
// with randomized restarts plus steepest-descent single-task moves.
func SearchBestAllocation(ev *AllocationEvaluator, mTotal int, obj Objective, deadline float64, restarts int, seed uint64) ([]int, float64, error) {
	n := ev.model.N()
	if mTotal < 0 {
		return nil, 0, fmt.Errorf("policy: negative workload %d", mTotal)
	}
	if err := obj.checkDeadline(deadline); err != nil {
		return nil, 0, fmt.Errorf("policy: %w", err)
	}
	if restarts < 1 {
		restarts = 1
	}

	score := func(alloc []int) (float64, error) {
		met, err := ev.Evaluate(alloc, deadline)
		if err != nil {
			return 0, err
		}
		switch obj {
		case ObjMeanTime:
			return met.Mean, nil
		case ObjQoS:
			return met.QoS, nil
		default:
			return met.Reliability, nil
		}
	}

	// Start 0: proportional to speed.
	weights := SpeedWeights(ev.model)
	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	proportional := make([]int, n)
	assigned := 0
	for i := range proportional {
		proportional[i] = int(float64(mTotal) * weights[i] / wsum)
		assigned += proportional[i]
	}
	for i := 0; assigned < mTotal; i = (i + 1) % n {
		proportional[i]++
		assigned++
	}

	bestVal := obj.worst()
	var best []int
	r := rngutil.Stream(seed, 0)
	for restart := 0; restart < restarts; restart++ {
		cur := append([]int(nil), proportional...)
		if restart > 0 {
			// Perturb: move a few random tasks around.
			for moves := 0; moves < n*2; moves++ {
				from := r.IntN(n)
				to := r.IntN(n)
				if cur[from] > 0 && from != to {
					cur[from]--
					cur[to]++
				}
			}
		}
		curVal, err := score(cur)
		if err != nil {
			return nil, 0, err
		}
		// Steepest descent over single-task moves.
		for {
			improved := false
			bestFrom, bestTo, bestMove := -1, -1, curVal
			for from := 0; from < n; from++ {
				if cur[from] == 0 {
					continue
				}
				for to := 0; to < n; to++ {
					if to == from {
						continue
					}
					cur[from]--
					cur[to]++
					v, err := score(cur)
					cur[from]++
					cur[to]--
					if err != nil {
						return nil, 0, err
					}
					if obj.better(v, bestMove) {
						bestMove, bestFrom, bestTo = v, from, to
						improved = true
					}
				}
			}
			if !improved {
				break
			}
			cur[bestFrom]--
			cur[bestTo]++
			curVal = bestMove
		}
		if obj.better(curVal, bestVal) {
			bestVal = curVal
			best = append([]int(nil), cur...)
		}
	}
	return best, bestVal, nil
}
