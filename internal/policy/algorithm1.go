package policy

import (
	"fmt"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/direct"
	"dtr/internal/obs"
	"dtr/internal/par"
)

// Alg1Options configures Algorithm 1.
type Alg1Options struct {
	// Objective and Deadline select which two-server problem each pair
	// solves ((3) for mean time, (4) for QoS/reliability).
	Objective Objective
	Deadline  float64
	// K is the maximum number of refinement iterations (paper parameter).
	K int
	// Estimates[i][j] is m̂_{j,i}, server i's estimate of server j's
	// queue; nil means perfect information (the true queues).
	Estimates [][]int
	// GridN sizes the pairwise direct solvers (0 = 4096 points); each
	// pair's horizon is derived from its own queues and means.
	GridN int
	// Workers shards the per-server refinement rows over a worker pool
	// (≤ 0 = GOMAXPROCS). Rows are fully independent — each touches only
	// its own plan row, estimates and pair solvers — so the resulting
	// policy (and the iteration/pair-solve counts) is bit-identical to
	// the serial sweep at every worker count. The Gauss–Seidel inner loop
	// of a row stays serial; it is order-dependent by construction.
	Workers int
	// Span, when set, records the refinement as a trace sub-tree: one
	// "algorithm1" span with an "alg1_row" child per refined server row
	// (rows attach concurrently; the span's child list is thread-safe).
	Span *obs.Span
	// Diag, when non-nil, is filled with per-row convergence history.
	// Purely observational — the returned policy is bit-identical with
	// or without it.
	Diag *Alg1Diagnostics
}

// Alg1SweepDiag is one Gauss–Seidel sweep of one server row: the largest
// single-entry plan change the sweep made (0 means the row reached its
// fixed point on this sweep) and the summed pairwise objective values of
// the sweep's two-server solves (direction depends on the objective:
// mean time falls as the row improves, QoS/reliability rise).
type Alg1SweepDiag struct {
	MaxDelta  int     `json:"maxDelta"`
	Objective float64 `json:"objective"`
}

// Alg1RowDiag is the convergence history of one active server row.
type Alg1RowDiag struct {
	// Server is the row's index in the model.
	Server int `json:"server"`
	// Candidates counts the recipients eq. (5) assigned the row.
	Candidates int `json:"candidates"`
	// Iterations is the number of sweeps run (≤ K).
	Iterations int `json:"iterations"`
	// Converged reports a fixed point within K sweeps; false means the
	// row was capped and the plan may still have been moving.
	Converged bool `json:"converged"`
	// Trimmed counts tasks removed by the final feasibility trim.
	Trimmed int `json:"trimmed"`
	// Sweeps is the per-sweep history, oldest first.
	Sweeps []Alg1SweepDiag `json:"sweeps"`
}

// Alg1Diagnostics is the convergence record of one Algorithm-1 run.
type Alg1Diagnostics struct {
	Servers int `json:"servers"`
	// K is the iteration cap in force.
	K int `json:"k"`
	// Converged and Capped partition the active rows by outcome.
	Converged int `json:"converged"`
	Capped    int `json:"capped"`
	// PairSolves counts two-server Optimize2 runs across all rows.
	PairSolves uint64 `json:"pairSolves"`
	// Rows holds the active rows' histories in server order.
	Rows []Alg1RowDiag `json:"rows"`
}

// Algorithm1 computes the multi-server DTR policy of the paper's
// Algorithm 1: each overloaded server starts from the eq. (5) plan,
// then repeatedly re-solves the exact two-server problem against each of
// its candidate recipients — assuming its other planned shipments already
// happened — until the plan reaches a fixed point or K iterations pass.
// The per-server work is at most (n−1) two-server solves per iteration,
// so the policy scales linearly in the number of servers.
func Algorithm1(m *core.Model, queues []int, opt Alg1Options) (core.Policy, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := m.N()
	if len(queues) != n {
		return nil, fmt.Errorf("policy: %d servers but %d queues", n, len(queues))
	}
	if err := opt.Objective.checkDeadline(opt.Deadline); err != nil {
		return nil, fmt.Errorf("policy: %w", err)
	}
	if opt.K <= 0 {
		opt.K = 5
	}
	// The eq. (5) weights: relative computing power for mean time and
	// QoS, relative reliability for reliability.
	var lambda []float64
	if opt.Objective == ObjReliability {
		lambda = ReliabilityWeights(m)
	} else {
		lambda = SpeedWeights(m)
	}
	est := opt.Estimates
	if est == nil {
		est = make([][]int, n)
		for i := range est {
			est[i] = append([]int(nil), queues...)
		}
	}

	defer obs.StartSpan("solve", "algo", "algorithm1", "servers", n, "objective", opt.Objective.String())()
	algSpan := opt.Span.Child("algorithm1", "servers", n, "objective", opt.Objective.String())
	defer algSpan.End()
	// rows[i] is row i's record, written only by row i's refinement, so
	// the concurrent sweep needs no locking; the counters, the row spans
	// and opt.Diag all read it.
	rows := make([]Alg1RowDiag, n)

	initial, err := InitialPolicy(queues, lambda)
	if err != nil {
		return nil, err
	}

	// L holds the evolving plan; only rows with initial candidates are
	// active (a server with no planned recipients reallocates nothing,
	// exactly as in the pseudocode's U_i construction).
	l := make([][]int, n)
	for i := range l {
		l[i] = append([]int(nil), initial[i]...)
	}

	// Each row i refines independently: it reads queues[i], est[i] and
	// initial[i], writes only l[i], and builds its own pair solvers (the
	// serial code never shared solvers across rows either — the cache key
	// was (i, j)). That makes the rows of one sweep safe to run
	// concurrently with a result identical to the serial row order.
	refineRow := func(i int) error {
		var candidates []int
		for j := 0; j < n; j++ {
			if initial[i][j] > 0 {
				candidates = append(candidates, j)
			}
		}
		if len(candidates) == 0 {
			return nil
		}
		row := &rows[i]
		*row = Alg1RowDiag{Server: i, Candidates: len(candidates)}
		rowSpan := algSpan.Child("alg1_row", "server", i, "candidates", len(candidates))
		defer func() {
			rowSpan.SetAttr("iterations", row.Iterations)
			rowSpan.SetAttr("converged", row.Converged)
			rowSpan.End()
		}()
		solvers := make(map[int]*direct.Solver)
		pairSolver := func(j int) (*direct.Solver, error) {
			if s, ok := solvers[j]; ok {
				return s, nil
			}
			sub := pairModel(m, i, j)
			maxQ := queues[i] + est[i][j] + 1
			gridN := opt.GridN
			if gridN == 0 {
				gridN = 4096
			}
			s, err := direct.NewSolver(sub, direct.Config{
				N:        gridN,
				MaxQueue: [2]int{maxQ, maxQ},
			})
			if err != nil {
				return nil, err
			}
			solvers[j] = s
			return s, nil
		}
		prev := append([]int(nil), l[i]...)
		for k := 1; k <= opt.K; k++ {
			row.Iterations++
			sweepObj := 0.0
			for _, j := range candidates {
				// Tasks still planned for other recipients are assumed
				// gone when solving against j.
				others := 0
				for _, jj := range candidates {
					if jj != j {
						others += l[i][jj]
					}
				}
				m1 := queues[i] - others
				if m1 < 0 {
					m1 = 0
				}
				m2 := est[i][j]
				s, err := pairSolver(j)
				if err != nil {
					return err
				}
				// The row itself occupies one pool slot; its lattice scans
				// stay serial rather than nesting a second pool.
				res, err := Optimize2(s, m1, m2, opt.Objective, Options2{Deadline: opt.Deadline, Workers: 1})
				if err != nil {
					return err
				}
				sweepObj += res.Value
				l[i][j] = res.L12
			}
			maxDelta := 0
			for _, j := range candidates {
				d := l[i][j] - prev[j]
				if d < 0 {
					d = -d
				}
				if d > maxDelta {
					maxDelta = d
				}
			}
			row.Sweeps = append(row.Sweeps, Alg1SweepDiag{MaxDelta: maxDelta, Objective: sweepObj})
			if maxDelta == 0 {
				row.Converged = true
				break
			}
			copy(prev, l[i])
		}
		// Feasibility: never ship more than the queue holds (possible if
		// pairwise optima overlap); trim proportionally from the largest.
		total := 0
		for _, j := range candidates {
			total += l[i][j]
		}
		for total > queues[i] {
			maxJ := candidates[0]
			for _, j := range candidates {
				if l[i][j] > l[i][maxJ] {
					maxJ = j
				}
			}
			l[i][maxJ]--
			total--
			row.Trimmed++
		}
		return nil
	}
	err = par.ForEach(par.Workers(opt.Workers), n, func(_, i int) error {
		return refineRow(i)
	})

	// Every sweep solves each of its row's candidate pairs once.
	d := Alg1Diagnostics{Servers: n, K: opt.K}
	iters := 0
	for _, r := range rows {
		if r.Candidates == 0 {
			continue
		}
		d.Rows = append(d.Rows, r)
		iters += r.Iterations
		d.PairSolves += uint64(r.Iterations * r.Candidates)
		if r.Converged {
			d.Converged++
		} else {
			d.Capped++
		}
	}
	alg1Runs.Inc()
	alg1Iters.Add(uint64(iters))
	alg1PairSolves.Add(d.PairSolves)
	alg1Converged.Add(uint64(d.Converged))
	alg1Capped.Add(uint64(d.Capped))
	if err != nil {
		return nil, err
	}
	if opt.Diag != nil {
		*opt.Diag = d
	}

	out := core.NewPolicy(n)
	for i := range l {
		copy(out[i], l[i])
	}
	if err := out.Validate(queues); err != nil {
		return nil, fmt.Errorf("policy: Algorithm 1 produced an infeasible policy: %w", err)
	}
	return out, nil
}

// pairModel extracts the two-server submodel for servers (i, j), keeping
// the original transfer and FN semantics between them.
func pairModel(m *core.Model, i, j int) *core.Model {
	orig := [2]int{i, j}
	sub := &core.Model{
		Service: []dist.Dist{m.Service[i], m.Service[j]},
		Failure: []dist.Dist{m.Failure[i], m.Failure[j]},
		Transfer: func(tasks, src, dst int) dist.Dist {
			return m.Transfer(tasks, orig[src], orig[dst])
		},
	}
	if m.FN != nil {
		sub.FN = func(src, dst int) dist.Dist {
			return m.FN(orig[src], orig[dst])
		}
	}
	if m.Repl != nil {
		sub.Repl = []int{m.ReplFactor(i), m.ReplFactor(j)}
	}
	return sub
}
