// Package policy implements the paper's task-reallocation machinery:
//
//   - the exact two-server DTR optimization problems (3) and (4) —
//     minimize the mean execution time or maximize the QoS/reliability
//     over the feasible (L12, L21) lattice;
//   - the load-balancing initial policy of eq. (5);
//   - Algorithm 1, the linear-complexity multi-server heuristic that
//     decomposes an n-server system into pairwise two-server problems and
//     iterates them to a fixed point;
//   - the Monte-Carlo benchmark of Table II: a search for the best
//     initial *allocation* (the paper's "optimal allocation" row).
package policy

import (
	"cmp"
	"container/heap"
	"fmt"
	"math"
	"slices"
	"time"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/direct"
	"dtr/internal/obs"
	"dtr/internal/par"
)

// Objective selects the metric being optimized.
type Objective int

const (
	// ObjMeanTime minimizes the mean workload execution time (problem (3)).
	ObjMeanTime Objective = iota
	// ObjQoS maximizes P(T < Deadline) (problem (4)).
	ObjQoS
	// ObjReliability maximizes P(T < ∞) (problem (4) with TM = ∞).
	ObjReliability
)

// String returns the objective's conventional name.
func (o Objective) String() string {
	switch o {
	case ObjMeanTime:
		return "mean-time"
	case ObjQoS:
		return "qos"
	case ObjReliability:
		return "reliability"
	default:
		return fmt.Sprintf("objective(%d)", int(o))
	}
}

// ParseObjective maps an objective's wire name — "mean" (also ""), "qos"
// or "reliability" — onto the objective and its canonical name, checking
// the deadline the objective is to be pursued under. It is the one place
// the names are read.
func ParseObjective(name string, deadline float64) (Objective, string, error) {
	switch name {
	case "", "mean":
		return ObjMeanTime, "mean", nil
	case "qos":
		return ObjQoS, name, ObjQoS.checkDeadline(deadline)
	case "reliability":
		return ObjReliability, name, nil
	}
	return 0, "", fmt.Errorf("objective: unknown objective %q", name)
}

// checkDeadline states the rule the qos objective carries: P(T < TM)
// needs a positive TM.
func (o Objective) checkDeadline(deadline float64) error {
	if o == ObjQoS && deadline <= 0 {
		return fmt.Errorf("deadline: objective qos needs a positive deadline")
	}
	return nil
}

// better reports whether a beats b under the objective's direction.
func (o Objective) better(a, b float64) bool {
	if o == ObjMeanTime {
		return a < b
	}
	return a > b
}

func (o Objective) worst() float64 {
	if o == ObjMeanTime {
		return math.Inf(1)
	}
	return math.Inf(-1)
}

// Result2 is the outcome of a two-server policy search.
type Result2 struct {
	L12, L21    int
	Value       float64
	Evaluations int
	// Diag is the search's lattice coverage.
	Diag SweepDiagnostics
}

// Options2 tunes the two-server search.
//
// A sweep on the canonical-scenario solver (Optimize2, each combination
// of OptimizeRepl2) runs once per set of tables: they remember it under
// the objective, the deadline (qos only), the factors, the workload and
// Exhaustive, and a later identical sweep on any view of them returns
// the same Result2 without evaluating a point; one arriving
// while that sweep runs waits for it. That view's Diagnostics then
// report the finish pairs the answer rests on, as if it had run the
// sweep. Workers and Span are not part of the key: they never change
// the answer.
type Options2 struct {
	// Deadline is the QoS horizon TM (required for ObjQoS).
	Deadline float64
	// Exhaustive forces evaluation of every feasible (L12, L21); the
	// default coarse-to-fine scan evaluates a strided lattice and then
	// refines around the leaders, exploiting the smoothness of the
	// metrics in the policy.
	Exhaustive bool
	// Workers shards the lattice evaluations over a worker pool
	// (≤ 0 = GOMAXPROCS). The result — optimum, value, tie-breaking and
	// Evaluations — is bit-identical to the serial scan at every worker
	// count: each pass's candidate points are generated in serial scan
	// order, evaluated concurrently, and reduced in that same order.
	Workers int
	// Span, when set, records the search as a trace sub-tree: one
	// "optimize2" span with a "sweep" child per evaluated batch. Purely
	// observational — see the bit-identity guard in the tests.
	Span *obs.Span
}

// SweepDiagnostics describes how much of the feasible policy lattice an
// Optimize2 run actually evaluated. Coverage near 1 on a non-exhaustive
// run means the coarse-to-fine heuristic degenerated to a full scan;
// coverage near 0 on large lattices is the intended behaviour — but only
// trustworthy while the metrics stay smooth in the policy, which is what
// the grid-error probe (direct.ProbeGridError) cross-checks.
type SweepDiagnostics struct {
	// Feasible is the full lattice size (m1+1)·(m2+1).
	Feasible int `json:"feasible"`
	// Evaluated counts distinct policies actually solved.
	Evaluated int `json:"evaluated"`
	// Batches counts evaluation rounds (coarse, refinements, polish).
	Batches int `json:"batches"`
	// Coverage is Evaluated/Feasible.
	Coverage float64 `json:"coverage"`
	// Exhaustive records whether the full-lattice mode was forced.
	Exhaustive bool `json:"exhaustive"`
}

// evalFunc computes the objective for one policy (L12, L21).
type evalFunc func(l12, l21 int) (float64, error)

// screened is a sweep's screen-then-confirm evaluation on the
// canonical-scenario solver: fill makes ahead what scoring a batch reads,
// score values every candidate without a transform, and confirm
// evaluates exactly the candidates that can still win (see
// sweep2.tryAll). Score is within direct.ScreenEps of a maximized linear
// objective, or, when walk is set, a pre-bound on the minimized mean
// that walk refines to a tighter lower bound, after fillWalk has made
// what the walks of a chunk read (see sweep2.confirmLeast).
type screened struct {
	score, confirm, walk evalFunc
	fill, fillWalk       func(pts [][2]int, workers int)
}

// metric is the solver metric the objective reads.
func (o Objective) metric() (direct.Metric, error) {
	switch o {
	case ObjMeanTime:
		return direct.MetricMean, nil
	case ObjQoS:
		return direct.MetricQoS, nil
	case ObjReliability:
		return direct.MetricReliability, nil
	}
	return 0, fmt.Errorf("policy: unknown objective %v", o)
}

// directEval evaluates policies on the canonical-scenario solver under
// the per-server replication factors fac. It is not inlined: a copy of
// the closure it returns, compiled where it inlines, does not inline
// direct.Pair, and the point's slices then reach the heap on every call.
//
//go:noinline
func directEval(s *direct.Solver, m1, m2 int, obj Objective, deadline float64, fac [2]int) evalFunc {
	metric, err := obj.metric()
	if err != nil {
		return func(int, int) (float64, error) { return 0, err }
	}
	fs := fac[:]
	return func(l12, l21 int) (float64, error) {
		return s.Eval(direct.Pair(m1, m2, l12, l21, fs), metric, deadline)
	}
}

// directScreen fills, scores and confirms policies through the screen
// sn, built for the factors fac, and for the mean (lower) walks them.
// Not inlined, for directEval's reason.
//
//go:noinline
func directScreen(sn *direct.Screen, m1, m2 int, fac [2]int, lower bool) *screened {
	fs := fac[:]
	scr := &screened{
		score: func(l12, l21 int) (float64, error) {
			return sn.Score(direct.Pair(m1, m2, l12, l21, fs))
		},
		confirm: func(l12, l21 int) (float64, error) {
			return sn.Confirm(direct.Pair(m1, m2, l12, l21, fs))
		},
		fill: func(pts [][2]int, workers int) {
			sn.FillPairs(m1, m2, pts, workers)
		},
	}
	if lower {
		scr.walk = func(l12, l21 int) (float64, error) {
			return sn.Refine(direct.Pair(m1, m2, l12, l21, fs))
		}
		scr.fillWalk = sn.FillWalks
	}
	return scr
}

// Optimize2 solves problems (3)/(4): it searches the feasible policy
// lattice {0..m1}×{0..m2} for the DTR policy optimizing the objective,
// using the canonical-scenario solver for the metric values under the
// model's default replication factors (OptimizeRepl2 searches over
// them). The lattice evaluations of each pass are sharded over
// Options2.Workers goroutines; see Options2.Workers for the
// bit-identical-to-serial guarantee.
func Optimize2(s *direct.Solver, m1, m2 int, obj Objective, opt Options2) (Result2, error) {
	return sweepDirect(s, m1, m2, obj, opt, s.DefaultFactors())
}

// sweepKey is what a sweep on the canonical-scenario solver searched,
// the key direct.Solver.Sweep remembers it under. Only qos reads the
// deadline, so mean and reliability sweeps key it as 0.
type sweepKey struct {
	obj        Objective
	deadline   float64
	fac        [2]int
	m1, m2     int
	exhaustive bool
}

// sweepDirect is the lattice sweep under the factors fac, once per set of
// tables (see Options2); a sweep read back shows in the trace as an
// "optimize2" span with memo=true.
func sweepDirect(s *direct.Solver, m1, m2 int, obj Objective, opt Options2, fac [2]int) (Result2, error) {
	key := sweepKey{obj: obj, fac: fac, m1: m1, m2: m2, exhaustive: opt.Exhaustive}
	if obj == ObjQoS {
		key.deadline = opt.Deadline
	}
	v, hit, err := s.Sweep(key, fac, func(v *direct.Solver) (any, error) {
		var scr *screened
		// A deadline Eval refuses has no screen, nor has the mean on a
		// failure-prone model: every point goes to Eval, which says why.
		if metric, err := obj.metric(); err == nil {
			if sn, err := v.Screen(metric, opt.Deadline, fac[:]); err == nil {
				defer sn.Release()
				scr = directScreen(sn, m1, m2, fac, metric == direct.MetricMean)
			}
		}
		return optimize2(directEval(v, m1, m2, obj, opt.Deadline, fac), scr, m1, m2, obj, opt)
	})
	if err != nil {
		return Result2{}, err
	}
	res := v.(Result2)
	if hit {
		opt.Span.Child("optimize2", "objective", obj.String(), "m1", m1, "m2", m2, "memo", true,
			"evals", res.Evaluations, "coverage", res.Diag.Coverage).End()
	}
	return res, nil
}

// optimize2 is the search engine behind Optimize2, OptimizeRepl2 and
// Optimize2Regen: the lattice sweep over whatever evaluates one policy,
// screened by scr when it is set (a sweep on the canonical-scenario
// solver).
func optimize2(eval evalFunc, scr *screened, m1, m2 int, obj Objective, opt Options2) (Result2, error) {
	if m1 < 0 || m2 < 0 {
		return Result2{}, fmt.Errorf("policy: negative workload (%d, %d)", m1, m2)
	}
	if err := obj.checkDeadline(opt.Deadline); err != nil {
		return Result2{}, fmt.Errorf("policy: %w", err)
	}

	sw := &sweep2{
		eval: eval, scr: scr, m1: m1, m2: m2, obj: obj,
		workers: par.Workers(opt.Workers),
		best:    Result2{Value: obj.worst(), L12: -1, L21: -1},
		seen:    make(map[[2]int]bool),
		span:    opt.Span.Child("optimize2", "objective", obj.String(), "m1", m1, "m2", m2),
	}
	if obs.Default() != nil {
		sw.busy = make([]*obs.Gauge, sw.workers)
		for w := range sw.busy {
			sw.busy[w] = obs.Default().Gauge(obs.Name("dtr_policy_worker_busy_seconds", "worker", w))
		}
		sw.share = make([]time.Duration, sw.workers)
	}
	sweepRuns.Inc()
	defer func() {
		sweepEvals.Add(uint64(sw.evals))
		sw.span.SetAttr("evals", sw.evals)
		sw.span.SetAttr("walks", sw.walks)
		sw.span.End()
	}()

	if opt.Exhaustive {
		// Sending tasks both ways simultaneously is feasible in the model
		// but never optimal (the two flows could cancel); the paper's
		// reported optima still include (L12>0, L21>0) pairs like (32, 1),
		// so the full lattice is searched.
		pts := make([][2]int, 0, (m1+1)*(m2+1))
		for l12 := 0; l12 <= m1; l12++ {
			for l21 := 0; l21 <= m2; l21++ {
				pts = append(pts, [2]int{l12, l21})
			}
		}
		if err := sw.tryAll(pts); err != nil {
			return Result2{}, err
		}
		return sw.result(true), nil
	}

	stride := max(1, max(m1, m2)/12)
	// Coarse pass over the strided lattice, with the far edges sampled.
	var pts [][2]int
	for l12 := 0; l12 <= m1; l12 += stride {
		for l21 := 0; l21 <= m2; l21 += stride {
			pts = append(pts, [2]int{l12, l21})
		}
	}
	for l21 := 0; l21 <= m2; l21 += stride {
		pts = append(pts, [2]int{m1, l21})
	}
	for l12 := 0; l12 <= m1; l12 += stride {
		pts = append(pts, [2]int{l12, m2})
	}
	if err := sw.tryAll(pts); err != nil {
		return Result2{}, err
	}
	// Refinement passes: halve the stride around the incumbent until 1.
	// Each pass is one batch — its candidate set depends only on the
	// incumbent, which the deterministic reduction fixes pass by pass.
	for stride > 1 {
		stride = max(1, stride/2)
		c12, c21 := sw.best.L12, sw.best.L21
		pts = pts[:0]
		for l12 := c12 - 2*stride; l12 <= c12+2*stride; l12 += stride {
			for l21 := c21 - 2*stride; l21 <= c21+2*stride; l21 += stride {
				pts = append(pts, [2]int{l12, l21})
			}
		}
		if err := sw.tryAll(pts); err != nil {
			return Result2{}, err
		}
	}
	// Final local polish at stride 1.
	improved := true
	for improved {
		c12, c21 := sw.best.L12, sw.best.L21
		pts = pts[:0]
		for _, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, -1}, {-1, 1}, {1, 1}, {-1, -1}} {
			pts = append(pts, [2]int{c12 + d[0], c21 + d[1]})
		}
		prev := sw.best
		if err := sw.tryAll(pts); err != nil {
			return Result2{}, err
		}
		improved = sw.best != prev
	}
	return sw.result(false), nil
}

// result is the finished sweep's incumbent with its evaluation count and
// coverage statistics, which also go onto the coverage gauge (a no-op
// until a metrics registry is installed) and the trace span.
func (sw *sweep2) result(exhaustive bool) Result2 {
	feasible := (sw.m1 + 1) * (sw.m2 + 1)
	coverage := 0.0
	if feasible > 0 {
		coverage = float64(sw.evals) / float64(feasible)
	}
	sweepCoverage.Set(coverage)
	sw.span.SetAttr("coverage", coverage)
	res := sw.best
	res.Evaluations = sw.evals
	res.Diag = SweepDiagnostics{
		Feasible:   feasible,
		Evaluated:  sw.evals,
		Batches:    sw.batches,
		Coverage:   coverage,
		Exhaustive: exhaustive,
	}
	return res
}

// sweep2 is the state of one Optimize2 run: candidate filtering and
// deduplication, the sharded batch evaluator, and the serial-order
// reduction into the incumbent.
type sweep2 struct {
	eval    evalFunc
	scr     *screened // nil: every candidate goes to eval
	m1, m2  int
	obj     Objective
	workers int
	seen    map[[2]int]bool
	best    Result2
	evals   int
	batches int
	walks   int       // the mean's walked bounds (see confirmLeast)
	span    *obs.Span // "optimize2" trace span (nil = untraced)

	cand  [][2]int        // candidate scratch, reused across batches
	keep  [][2]int        // the screen's contenders, reused across batches
	vals  []float64       // value slots, written by index from the pool
	busy  []*obs.Gauge    // per-worker busy gauges (nil = uninstrumented)
	share []time.Duration // each's per-worker busy time (nil = uninstrumented)
	least least           // confirmLeast's scratch, reused across batches
	// confirmed, when set, receives each chunk confirmLeast confirms.
	confirmed func(pts [][2]int)
}

// tryAll evaluates one batch of candidate points: infeasible and
// already-seen points are dropped while preserving the given (serial
// scan) order, the survivors are evaluated concurrently into per-index
// slots, and the slots are folded into the incumbent in that same order
// with the objective's strict comparison. The fold is exactly the serial
// scan's one-at-a-time try loop — a candidate replaces the incumbent
// only when strictly better, so the earliest candidate wins ties and the
// evaluation count matches — which is what makes the parallel sweep
// bit-identical to the serial one at every worker count.
//
// A screened sweep fills what scoring the survivors reads, scores every
// one and evaluates exactly only those that can still win. Under the
// linear objectives' contract those are the contenders: the scores within
// 2·ScreenEps of the larger of the best score and the incumbent, and any
// NaN. With every score within ScreenEps of its exact value, a candidate
// left out is exactly worse than the incumbent or than the best-scoring
// candidate, and every candidate exactly as good as the batch's best is
// kept. Under the mean's pre-bounds confirmLeast picks them. Either
// way the fold over the confirmed exact values in scan order lands where
// the fold over every candidate would: same policy, same value bits. A
// screened point counts once.
func (sw *sweep2) tryAll(pts [][2]int) error {
	cand := sw.cand[:0]
	for _, p := range pts {
		if p[0] < 0 || p[1] < 0 || p[0] > sw.m1 || p[1] > sw.m2 {
			continue
		}
		if sw.seen[p] {
			continue
		}
		sw.seen[p] = true
		cand = append(cand, p)
	}
	sw.cand = cand
	if len(cand) == 0 {
		return nil
	}
	if cap(sw.vals) < len(cand) {
		sw.vals = make([]float64, len(cand))
	}
	vals := sw.vals[:len(cand)]
	sweepBatches.Inc()
	sw.batches++
	batchSpan := sw.span.Child("sweep", "batch", len(cand))
	defer batchSpan.End()
	if sw.scr == nil {
		if err := sw.each(cand, vals, sw.eval); err != nil {
			return err
		}
		sw.evals += len(cand)
		sw.reduce(cand, vals)
		return nil
	}
	sw.scr.fill(cand, sw.workers)
	if err := sw.each(cand, vals, sw.scr.score); err != nil {
		return err
	}
	sw.evals += len(cand)
	if sw.scr.walk != nil {
		return sw.confirmLeast(cand, vals)
	}
	top := sw.best.Value
	for _, v := range vals {
		if v > top {
			top = v
		}
	}
	keep := sw.keep[:0]
	for i, v := range vals {
		if !(v < top-2*direct.ScreenEps) {
			keep = append(keep, cand[i])
		}
	}
	sw.keep = keep
	vals = vals[:len(keep)]
	if err := sw.each(keep, vals, sw.scr.confirm); err != nil {
		return err
	}
	sw.reduce(keep, vals)
	return nil
}

// confirmChunk is how many candidates confirmLeast confirms at once, and
// walkChunk how many it walks at once, over the sweep's workers. They are
// constants, not the worker count, so that which points are walked and
// folded — the transfer lattices made and the solver's fold audit — is
// the same at every worker count.
const (
	confirmChunk = 4
	walkChunk    = 16
)

// least is confirmLeast's scratch, reused across batches: the heap of
// walked candidates not yet confirmed, keyed by their bounds, the heap
// of candidates not yet walked, keyed by their pre-bounds, the walked
// bounds by index, the confirmed candidates, and a walk's points and
// values.
type least struct {
	walked, pend idxHeap
	done, chunk  []int
	bound        []float64
	pts          [][2]int
	vals         []float64
}

// idxHeap is a min-heap of candidate indices keyed by (key[i], i):
// popping it hands them out in the order sorting them all would.
type idxHeap struct {
	idx []int
	key []float64
}

func (h *idxHeap) Len() int { return len(h.idx) }
func (h *idxHeap) Less(a, b int) bool {
	i, j := h.idx[a], h.idx[b]
	return cmp.Or(cmp.Compare(h.key[i], h.key[j]), i-j) < 0
}
func (h *idxHeap) Swap(a, b int) { h.idx[a], h.idx[b] = h.idx[b], h.idx[a] }
func (h *idxHeap) Push(x any)    { h.idx = append(h.idx, x.(int)) }

// Pop drops the last slot without returning it (boxing an index would
// allocate): the caller reads the top, idx[0], before heap.Pop.
func (h *idxHeap) Pop() any { h.idx = h.idx[:len(h.idx)-1]; return nil }

// confirmLeast confirms the candidates cand from the least walked bound
// up (ties in scan order), confirmChunk at a time: a chunk takes the next
// candidates whose bounds are at most direct.ScreenEps relative above
// ref, the least of the incumbent and the exact values confirmed so far,
// and the first candidate above it ends the search. It then folds the
// confirmed candidates' exact values into the incumbent in scan order.
// The scores pre are pre-bounds on the walked bounds, which are lower
// bounds on the exact values.
//
// A candidate is walked only when that order needs its bound. The walked
// candidates not yet confirmed sit in a min-heap keyed by (bound, index);
// the others are walked in (pre-bound, index) order, walkChunk at a time,
// while the next one's key is at or below the heap's top. Once it is
// above, so is every unwalked candidate's — a bound is at least its
// pre-bound, and equal keys fall to the lower index — and the top is the
// least (bound, index) left. The chunks are therefore those of walking
// every candidate and sorting, whatever was walked beyond. The search
// also ends, without walking, once the heap's top and the next pre-bound
// both exceed the threshold: then every bound left does.
//
// Every candidate whose exact value is the least of the batch's and the
// incumbent's, v*, is confirmed: ref never falls below v*, and the
// candidate's bound is at most v* + ScreenEps·v*. A fold over the
// confirmed values in scan order therefore picks what a fold over every
// candidate picks.
func (sw *sweep2) confirmLeast(cand [][2]int, pre []float64) error {
	ls := &sw.least
	ls.bound = slices.Grow(ls.bound[:0], len(cand))[:len(cand)]
	bound, ref := ls.bound, sw.best.Value
	ls.walked, ls.done = idxHeap{idx: ls.walked.idx[:0], key: bound}, ls.done[:0]
	ls.pend = idxHeap{idx: ls.pend.idx[:0], key: pre}
	for i := range cand {
		ls.pend.idx = append(ls.pend.idx, i)
	}
	heap.Init(&ls.pend)
	walked := &ls.walked
	var pts [confirmChunk][2]int
	var idx [confirmChunk]int
	var vals [confirmChunk]float64
	for {
		thr := ref + direct.ScreenEps*math.Abs(ref)
		n := 0
		for ; n < confirmChunk; n++ {
			for ls.pend.Len() > 0 {
				j := ls.pend.idx[0]
				if walked.Len() > 0 && cmp.Or(cmp.Compare(pre[j], bound[walked.idx[0]]), j-walked.idx[0]) > 0 {
					break // the top is the least left
				}
				if pre[j] > thr && (walked.Len() == 0 || bound[walked.idx[0]] > thr) {
					break // nothing left is confirmed
				}
				ls.chunk = ls.chunk[:0]
				for len(ls.chunk) < walkChunk && ls.pend.Len() > 0 {
					ls.chunk = append(ls.chunk, ls.pend.idx[0])
					heap.Pop(&ls.pend)
				}
				if err := sw.walk(cand, ls.chunk); err != nil {
					return err
				}
			}
			if walked.Len() == 0 || bound[walked.idx[0]] > thr {
				break
			}
			idx[n] = walked.idx[0]
			heap.Pop(walked)
			pts[n] = cand[idx[n]]
		}
		if n == 0 {
			break
		}
		if err := sw.each(pts[:n], vals[:n], sw.scr.confirm); err != nil {
			return err
		}
		if sw.confirmed != nil {
			sw.confirmed(pts[:n])
		}
		for j, i := range idx[:n] {
			ls.done, bound[i] = append(ls.done, i), vals[j]
			if vals[j] < ref {
				ref = vals[j]
			}
		}
	}
	slices.Sort(ls.done)
	keep := sw.keep[:0]
	for p, i := range ls.done {
		keep = append(keep, cand[i])
		pre[p] = bound[i]
	}
	sw.keep = keep
	sw.reduce(keep, pre[:len(keep)])
	return nil
}

// walk refines the candidates idx of cand to their walked bounds, after
// making ahead the transfer lattices they read, and pushes them onto
// the heap.
func (sw *sweep2) walk(cand [][2]int, idx []int) error {
	ls := &sw.least
	ls.pts = ls.pts[:0]
	for _, i := range idx {
		ls.pts = append(ls.pts, cand[i])
	}
	ls.vals = slices.Grow(ls.vals[:0], len(idx))[:len(idx)]
	sw.scr.fillWalk(ls.pts, sw.workers)
	if err := sw.each(ls.pts, ls.vals, sw.scr.walk); err != nil {
		return err
	}
	for j, i := range idx {
		ls.bound[i] = ls.vals[j]
		heap.Push(&ls.walked, i)
	}
	sw.walks += len(idx)
	return nil
}

// each evaluates f at every point of pts into vals, sharded over the
// sweep's workers. Instrumented, it adds each worker's busy time, its
// whole share timed once, to the worker's gauge: a pool whose gauges
// diverge is starved by stragglers, the same signal sim exports.
func (sw *sweep2) each(pts [][2]int, vals []float64, f evalFunc) error {
	clear(sw.share)
	err := par.ForEachTimed(sw.workers, len(pts), func(_, i int) error {
		v, err := f(pts[i][0], pts[i][1])
		vals[i] = v
		return err
	}, sw.share)
	for w, d := range sw.share {
		sw.busy[w].Add(d.Seconds())
	}
	return err
}

// reduce folds the exact values vals of pts into the incumbent in order,
// replacing it only on a strictly better value.
func (sw *sweep2) reduce(pts [][2]int, vals []float64) {
	for i, p := range pts {
		if sw.obj.better(vals[i], sw.best.Value) {
			sw.best = Result2{L12: p[0], L21: p[1], Value: vals[i]}
		}
	}
}

// InitialPolicy is the eq. (5) load-balancing initializer: server i
// computes the total system load it believes exists, gives every server a
// share proportional to its weight Λ_j (processing speed for the
// mean-time criterion, reliability for the reliability criterion), and
// plans to ship its own excess to the deficient servers pro rata.
//
// (The equation as printed in the paper is typographically damaged; this
// is the standard fair-share reading consistent with the surrounding
// text, recorded in DESIGN.md.)
func InitialPolicy(queues []int, lambda []float64) (core.Policy, error) {
	n := len(queues)
	if len(lambda) != n {
		return nil, fmt.Errorf("policy: %d queues but %d weights", n, len(lambda))
	}
	var total float64
	var m int
	for i, l := range lambda {
		if l <= 0 || math.IsNaN(l) {
			return nil, fmt.Errorf("policy: weight %d must be positive, got %g", i, l)
		}
		total += l
		if queues[i] < 0 {
			return nil, fmt.Errorf("policy: negative queue %d", i)
		}
		m += queues[i]
	}
	target := make([]float64, n)
	for i := range target {
		target[i] = float64(m) * lambda[i] / total
	}
	var deficitSum float64
	for j := 0; j < n; j++ {
		if d := target[j] - float64(queues[j]); d > 0 {
			deficitSum += d
		}
	}
	p := core.NewPolicy(n)
	if deficitSum == 0 {
		return p, nil
	}
	for i := 0; i < n; i++ {
		excess := float64(queues[i]) - target[i]
		if excess <= 0 {
			continue
		}
		sent := 0
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			d := target[j] - float64(queues[j])
			if d <= 0 {
				continue
			}
			l := int(math.Floor(excess * d / deficitSum))
			if sent+l > queues[i] {
				l = queues[i] - sent
			}
			p[i][j] = l
			sent += l
		}
	}
	return p, nil
}

// SpeedWeights returns Λ_j = 1/E[W_j], the relative-computing-power
// criterion of eq. (5). Under replication the effective per-task law is
// the min-of-k order statistic, whose smaller mean makes the replicated
// server proportionally faster in the load-balancing initializer.
func SpeedWeights(m *core.Model) []float64 {
	w := make([]float64, m.N())
	for i := range m.Service {
		w[i] = 1 / m.EffectiveService(i).Mean()
	}
	return w
}

// ReliabilityWeights returns Λ_j proportional to the server's expected
// lifetime (the relative-reliability criterion of eq. (5)); reliable
// servers get the largest finite weight present, scaled up.
func ReliabilityWeights(m *core.Model) []float64 {
	w := make([]float64, m.N())
	maxFinite := 0.0
	for i, d := range m.Failure {
		if _, never := d.(dist.Never); never {
			w[i] = math.Inf(1)
			continue
		}
		w[i] = d.Mean()
		if w[i] > maxFinite {
			maxFinite = w[i]
		}
	}
	if maxFinite == 0 {
		maxFinite = 1
	}
	for i := range w {
		if math.IsInf(w[i], 1) {
			w[i] = 10 * maxFinite
		}
	}
	return w
}
