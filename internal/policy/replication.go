package policy

// Replication-aware planning: joint search over task reallocation AND
// per-server replication factors. The model is cancel-on-first-complete
// replication (Wang/Joshi/Wornell): a server with factor f runs every
// task as f i.i.d. copies and keeps the first to finish, so its
// effective per-task law is the min-of-f order statistic — the dominant
// lever against stragglers that reallocation alone cannot pull.

import (
	"fmt"
	"math"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/direct"
)

// ReplOptions2 tunes the two-server joint reallocation+replication
// search.
type ReplOptions2 struct {
	// Options2 configures each per-combination policy sweep (deadline,
	// exhaustiveness, workers, span).
	Options2
	// MaxFactor caps the per-server replication factor (≥ 1; 0 and 1
	// both mean "no replication"). The solver must have been built with
	// Config.MaxFactor at least this large.
	MaxFactor int
	// Budget caps the total extra copies Σ_k (f_k − 1) a plan may
	// spend; ≤ 0 means unconstrained (every factor may reach
	// MaxFactor). With no contention in the model, extra copies never
	// hurt the objective, so the budget is what makes the trade-off
	// non-trivial.
	Budget int
}

// ReplResult2 is the outcome of a joint two-server search: the best
// policy, its per-server replication factors, and the achieved value.
// Evaluations counts lattice evaluations across every factor
// combination; Diag is the winning combination's sweep.
type ReplResult2 struct {
	Result2
	// Factors[k] is server k's replication factor in the winning plan
	// (1 = no replication).
	Factors [2]int
	// Combos is every combination's best policy and value, in
	// evaluation order ((1,1) first — the no-replication baseline).
	Combos []ReplCombo
}

// ReplCombo records one factor combination's best policy and value.
type ReplCombo struct {
	Factors [2]int  `json:"factors"`
	L12     int     `json:"l12"`
	L21     int     `json:"l21"`
	Value   float64 `json:"value"`
}

// OptimizeRepl2 solves the joint problem: over every feasible factor
// combination (f1, f2) within MaxFactor and Budget, run the full
// Optimize2 policy search with those factors and keep the best plan.
// Combinations run in deterministic order with the strict-better fold,
// so (1, 1) — evaluated first — wins ties: a plan replicates only when
// replication strictly improves the objective. Each combination's
// lattice sweep shards over Options2.Workers, and the result is
// bit-identical at every worker count (the combination loop itself is
// serial).
func OptimizeRepl2(s *direct.Solver, m1, m2 int, obj Objective, opt ReplOptions2) (ReplResult2, error) {
	maxF := opt.MaxFactor
	if maxF < 1 {
		maxF = 1
	}
	span := opt.Span.Child("optimize_repl2", "objective", obj.String(), "max_factor", maxF, "budget", opt.Budget)
	defer span.End()

	inner := opt.Options2
	inner.Span = span

	best := ReplResult2{Result2: Result2{Value: obj.worst(), L12: -1, L21: -1}, Factors: [2]int{1, 1}}
	var combos []ReplCombo
	evals := 0
	for f1 := 1; f1 <= maxF; f1++ {
		for f2 := 1; f2 <= maxF; f2++ {
			if opt.Budget > 0 && (f1-1)+(f2-1) > opt.Budget {
				continue
			}
			fac := [2]int{f1, f2}
			res, err := sweepDirect(s, m1, m2, obj, inner, fac)
			if err != nil {
				return ReplResult2{}, fmt.Errorf("policy: replication combo (%d, %d): %w", f1, f2, err)
			}
			evals += res.Evaluations
			combos = append(combos, ReplCombo{Factors: fac, L12: res.L12, L21: res.L21, Value: res.Value})
			if obj.better(res.Value, best.Value) {
				best = ReplResult2{Result2: res, Factors: fac}
			}
		}
	}
	best.Evaluations = evals
	best.Combos = combos
	span.SetAttr("evals", evals)
	return best, nil
}

// Algorithm1Repl extends Algorithm 1 with a replication assignment: the
// reallocation plan is computed first (the usual per-row Gauss–Seidel
// fixed point), then the copy budget is spent greedily — each extra copy
// goes to the server whose post-reallocation load gains the most
// expected per-task service time from one more copy,
//
//	gain_i = load_i · (E[min-of-f_i W_i] − E[min-of-(f_i+1) W_i]),
//
// ties to the lowest index. budget ≤ 0 is unconstrained (every server
// reaches maxFactor — without contention in the model more copies never
// hurt). The returned factors slice always has one entry per server.
func Algorithm1Repl(m *core.Model, queues []int, opt Alg1Options, maxFactor, budget int) (core.Policy, []int, error) {
	p, err := Algorithm1(m, queues, opt)
	if err != nil {
		return nil, nil, err
	}
	n := m.N()
	if maxFactor < 1 {
		maxFactor = 1
	}
	factors := make([]int, n)
	for i := range factors {
		factors[i] = 1
	}
	if maxFactor == 1 {
		return p, factors, nil
	}
	if budget <= 0 {
		budget = (maxFactor - 1) * n
	}
	// Post-reallocation load per server: what it keeps plus what it
	// receives.
	load := make([]float64, n)
	for i := 0; i < n; i++ {
		kept := queues[i]
		for j := 0; j < n; j++ {
			kept -= p[i][j]
		}
		recv := 0
		for j := 0; j < n; j++ {
			recv += p[j][i]
		}
		load[i] = float64(kept + recv)
	}
	// minMean[i][f-1] = E[min-of-f W_i], memoized per server.
	minMean := make(map[[2]int]float64)
	meanOf := func(i, f int) float64 {
		key := [2]int{i, f}
		if v, ok := minMean[key]; ok {
			return v
		}
		v := dist.NewMinOfK(m.Service[i], f).Mean()
		minMean[key] = v
		return v
	}
	for spent := 0; spent < budget; spent++ {
		bestI, bestGain := -1, 0.0
		for i := 0; i < n; i++ {
			if factors[i] >= maxFactor || load[i] <= 0 {
				continue
			}
			gain := load[i] * (meanOf(i, factors[i]) - meanOf(i, factors[i]+1))
			if math.IsNaN(gain) || math.IsInf(gain, 0) {
				continue // non-finite service means (e.g. Never laws)
			}
			if gain > bestGain {
				bestI, bestGain = i, gain
			}
		}
		if bestI < 0 {
			break // no server gains from another copy
		}
		factors[bestI]++
	}
	return p, factors, nil
}
