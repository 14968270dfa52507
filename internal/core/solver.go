package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"dtr/dist"
)

// Solver evaluates the three metrics of Theorem 1 for an n-server DCS by
// the age-dependent regeneration recursion: condition on the first event
// (a task service, a server failure, an FN arrival or a group arrival),
// integrate over the regeneration time, and recurse into the
// configuration that emerges — with every clock aged by the elapsed time.
// The paper writes the recursion out for two servers and notes (Remark 1)
// that n servers follow "the same principles"; here two servers is the
// instance n = 2 of the one implementation.
//
// The configuration space, and with it the cost, grows exponentially in n
// (§II-D: "computing the metrics using the exact n-server characterization
// is expensive") and is bounded only by MaxStates: use the solver for
// exact answers on small configurations and Algorithm 1 for policy making
// on many servers.
//
// The recursion is over a continuum of ages, so the solver works on a
// uniform age grid of step Step: every age, deadline and integration
// variable is quantized to the grid, and value functions are memoized on
// the quantized configuration. The result converges to the exact value as
// Step → 0 (see the convergence ablation in the benchmarks); the
// companion packages internal/markov (exponential inputs) and
// internal/direct (canonical scenarios) provide exact references the
// tests validate against.
type Solver struct {
	Model *Model

	// Step is the age-grid resolution h. Smaller is more accurate and
	// more expensive; a useful default is the smallest mean among the
	// active distributions divided by 10.
	Step float64

	// Horizon bounds every integral: joint survival beyond Horizon is
	// truncated (and counted as failure for reliability/QoS, as lost mass
	// for the mean). It must be large enough that the workload is almost
	// surely finished (or a failure has occurred) within it.
	Horizon float64

	// AgeCap clamps clock ages: an age beyond AgeCap is treated as
	// AgeCap when aging a distribution. Heavy-tailed laws change slowly
	// at large ages, so a cap of several means costs little accuracy and
	// keeps the memo table bounded.
	AgeCap float64

	// EpsSurvival truncates the event integral once the joint survival
	// drops below it.
	EpsSurvival float64

	// TrackFN, when true, includes failure-notice packets as regeneration
	// events (the paper's full event set). The metrics are invariant to
	// FN traffic — no control action depends on it in this model — so
	// false (the default) marginalizes the FN clocks out exactly and
	// shrinks the state space. Tests verify the invariance.
	TrackFN bool

	// MaxStates aborts the recursion if the memo table exceeds this many
	// entries (0 = unlimited). A blown budget indicates the grid is too
	// fine for the scenario; the error reports the offending sizes.
	MaxStates int

	// memo[metric] maps an encoded configuration (see key) to its value.
	memo [3]map[string]float64
	// keyBuf and keyMsgs are the scratch key encodes into; a hit looks the
	// buffer up in place, so only a miss allocates its key.
	keyBuf  []byte
	keyMsgs []gmsg
	// succ[d] is the successor a depth-d value call hands to depth d+1. A
	// callee never retains its argument, so one scratch state per depth
	// replaces a fresh clone per successor.
	succ []*gstate
}

// NewSolver returns a solver with a sensible default grid derived from
// the model's means.
func NewSolver(m *Model) (*Solver, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	// Replication folds into the service laws exactly: the k copies of a
	// task start and cancel together, so the per-task service process is
	// one draw from the min-of-k law and ages compose (Aged commutes
	// with the minimum).
	m = m.EffectiveModel()
	minMean := math.Inf(1)
	for _, d := range m.Service {
		if mu := d.Mean(); mu < minMean {
			minMean = mu
		}
	}
	return &Solver{
		Model:       m,
		Step:        minMean / 10,
		Horizon:     400 * minMean,
		AgeCap:      20 * minMean,
		EpsSurvival: 1e-9,
	}, nil
}

// gstate is the solver's internal grid state: the State of the model with
// all ages held as integer grid steps.
type gstate struct {
	q      []int
	up     []bool
	aW     []int
	aY     []int
	groups []gmsg
	fns    []gmsg
}

// gmsg is a message in transit, its age in grid steps: a task group, or a
// failure notice (tasks == 0).
type gmsg struct {
	src, dst, tasks, age int
}

// fromState quantizes a State onto the grid.
func (sv *Solver) fromState(s *State) (*gstate, error) {
	n := sv.Model.N()
	if len(s.Queue) != n || len(s.Up) != n || len(s.AgeW) != n || len(s.AgeY) != n {
		return nil, fmt.Errorf("core: state has %d servers, model %d", len(s.Queue), n)
	}
	g := &gstate{
		q:  append([]int(nil), s.Queue...),
		up: append([]bool(nil), s.Up...),
	}
	for k := 0; k < n; k++ {
		g.aW = append(g.aW, sv.quant(s.AgeW[k]))
		g.aY = append(g.aY, sv.quant(s.AgeY[k]))
	}
	for _, grp := range s.Groups {
		g.groups = append(g.groups, gmsg{src: grp.Src, dst: grp.Dst, tasks: grp.Tasks, age: sv.quant(grp.Age)})
	}
	if sv.TrackFN {
		for _, fn := range s.FNs {
			g.fns = append(g.fns, gmsg{src: fn.Src, dst: fn.Dst, age: sv.quant(fn.Age)})
		}
	}
	return g, nil
}

func (sv *Solver) quant(age float64) int {
	return int(math.Round(age / sv.Step))
}

func (sv *Solver) groupLaw(m gmsg) dist.Dist {
	return sv.Model.Transfer(m.tasks, m.src, m.dst)
}

// fnLaw is nil for a model without failure-notice traffic: a notice the
// initial state carries then keeps its age and never arrives.
func (sv *Solver) fnLaw(m gmsg) dist.Dist {
	if sv.Model.FN == nil {
		return nil
	}
	return sv.Model.FN(m.src, m.dst)
}

// key encodes the canonicalized configuration (plus the deadline in grid
// steps, -1 when the metric has none) into keyBuf. Memoryless clocks are
// normalized to age 0: their aged law equals their fresh law, so the value
// cannot depend on the age.
func (sv *Solver) key(g *gstate, deadline int) []byte {
	buf := binary.AppendVarint(sv.keyBuf[:0], int64(deadline))
	for k, q := range g.q {
		up, aw, ay := 0, g.aW[k], g.aY[k]
		if g.up[k] {
			up = 1
		}
		if !g.up[k] || q == 0 || memoryless(sv.Model.Service[k]) {
			aw = 0
		}
		if !g.up[k] || memoryless(sv.Model.Failure[k]) {
			ay = 0
		}
		buf = appendInts(buf, q, up, aw, ay)
	}
	buf = sv.appendMsgs(buf, g.groups, sv.groupLaw)
	if sv.TrackFN {
		buf = sv.appendMsgs(buf, g.fns, sv.fnLaw)
	}
	sv.keyBuf = buf
	return buf
}

// appendMsgs encodes in-transit messages in a canonical order (the value
// does not depend on how the state lists them).
func (sv *Solver) appendMsgs(buf []byte, msgs []gmsg, law func(gmsg) dist.Dist) []byte {
	sorted := append(sv.keyMsgs[:0], msgs...)
	sv.keyMsgs = sorted
	slices.SortFunc(sorted, func(a, b gmsg) int {
		return cmp.Or(cmp.Compare(a.dst, b.dst), cmp.Compare(a.tasks, b.tasks),
			cmp.Compare(a.src, b.src), cmp.Compare(a.age, b.age))
	})
	buf = binary.AppendVarint(buf, int64(len(sorted)))
	for _, m := range sorted {
		if memoryless(law(m)) {
			m.age = 0
		}
		buf = appendInts(buf, m.src, m.dst, m.tasks, m.age)
	}
	return buf
}

func appendInts(buf []byte, vs ...int) []byte {
	for _, v := range vs {
		buf = binary.AppendVarint(buf, int64(v))
	}
	return buf
}

// memoryless reports distributions whose aged law equals the fresh law.
func memoryless(d dist.Dist) bool {
	switch d.(type) {
	case dist.Exponential, *dist.Exponential, dist.Never, *dist.Never:
		return true
	}
	return false
}

// agedAt returns d aged by `steps` grid steps, clamped at AgeCap.
func (sv *Solver) agedAt(d dist.Dist, steps int) dist.Dist {
	if steps == 0 || memoryless(d) {
		return d
	}
	a := float64(steps) * sv.Step
	if a > sv.AgeCap {
		a = sv.AgeCap
	}
	// Guard against aging past the support of bounded laws: clamp to a
	// survival floor. This can only trigger through AgeCap rounding.
	for a > 0 && d.Survival(a) <= 0 {
		a -= sv.Step
	}
	if a <= 0 {
		return d
	}
	return d.Aged(a)
}

// clock is an active regeneration-event source with its residual law.
type clock struct {
	kind  clockKind
	idx   int // server for service/failure, group/fn slice index otherwise
	resid dist.Dist
}

type clockKind int

const (
	ckService clockKind = iota
	ckFailure
	ckFN
	ckGroup
)

// activeClocks enumerates the regeneration-event sources of g: τ_a is the
// minimum of their residual times.
func (sv *Solver) activeClocks(g *gstate) []clock {
	var cs []clock
	for k := range g.q {
		if g.up[k] && g.q[k] > 0 {
			cs = append(cs, clock{kind: ckService, idx: k, resid: sv.agedAt(sv.Model.Service[k], g.aW[k])})
		}
		if g.up[k] {
			if _, never := sv.Model.Failure[k].(dist.Never); !never {
				cs = append(cs, clock{kind: ckFailure, idx: k, resid: sv.agedAt(sv.Model.Failure[k], g.aY[k])})
			}
		}
	}
	for i, grp := range g.groups {
		cs = append(cs, clock{kind: ckGroup, idx: i, resid: sv.agedAt(sv.groupLaw(grp), grp.age)})
	}
	if sv.Model.FN != nil {
		for i, fn := range g.fns {
			cs = append(cs, clock{kind: ckFN, idx: i, resid: sv.agedAt(sv.fnLaw(fn), fn.age)})
		}
	}
	return cs
}

// successor writes into n the configuration that emerges from g when the
// regeneration event c fires after `adv` grid steps: ages advanced, the
// triggering clock resolved. n's slices are reused.
func (sv *Solver) successor(n, g *gstate, c clock, adv int) {
	n.q = append(n.q[:0], g.q...)
	n.up = append(n.up[:0], g.up...)
	n.aW, n.aY = n.aW[:0], n.aY[:0]
	for k := range g.q {
		aw := g.aW[k] + adv
		if !g.up[k] || g.q[k] == 0 {
			aw = 0
		}
		n.aW = append(n.aW, aw)
		n.aY = append(n.aY, g.aY[k]+adv)
	}
	n.groups = append(n.groups[:0], g.groups...)
	for i := range n.groups {
		n.groups[i].age += adv
	}
	n.fns = append(n.fns[:0], g.fns...)
	for i := range n.fns {
		n.fns[i].age += adv
	}
	switch c.kind {
	case ckService:
		n.q[c.idx]--
		n.aW[c.idx] = 0
	case ckFailure:
		k := c.idx
		n.up[k] = false
		n.aW[k] = 0
		n.aY[k] = 0
		if sv.TrackFN && sv.Model.FN != nil {
			for j := range n.q {
				if j != k && n.up[j] {
					n.fns = append(n.fns, gmsg{src: k, dst: j})
				}
			}
		}
	case ckGroup:
		grp := n.groups[c.idx]
		n.groups = slices.Delete(n.groups, c.idx, c.idx+1)
		if n.up[grp.dst] && n.q[grp.dst] == 0 {
			n.aW[grp.dst] = 0 // fresh service clock for the new batch
		}
		// Tasks delivered to a failed server are lost; they still join
		// the queue so the doomed check sees them.
		n.q[grp.dst] += grp.tasks
	case ckFN:
		n.fns = slices.Delete(n.fns, c.idx, c.idx+1)
	}
}

// metricKind selects the value function being computed.
type metricKind int

const (
	mReliability metricKind = iota
	mMean
	mQoS
)

// Reliability returns R_∞(S) = P(T(S) < ∞), the probability that the
// whole workload is served before any task is stranded on a failed
// server.
func (sv *Solver) Reliability(s *State) (float64, error) {
	return sv.solve(s, mReliability, -1)
}

// MeanTime returns T̄(S) = E[T(S)], defined only for models whose servers
// are all reliable (dist.Never failures).
func (sv *Solver) MeanTime(s *State) (float64, error) {
	if !sv.Model.Reliable() {
		return 0, fmt.Errorf("core: mean execution time requires reliable servers (dist.Never failures)")
	}
	return sv.solve(s, mMean, -1)
}

// QoS returns R_TM(S) = P(T(S) < TM), the probability the workload
// finishes within the deadline TM.
func (sv *Solver) QoS(s *State, tm float64) (float64, error) {
	if tm < 0 || math.IsNaN(tm) {
		return 0, fmt.Errorf("core: invalid deadline %g", tm)
	}
	return sv.solve(s, mQoS, sv.quant(tm))
}

func (sv *Solver) solve(s *State, metric metricKind, deadline int) (float64, error) {
	g, err := sv.fromState(s)
	if err != nil {
		return 0, err
	}
	if sv.memo[metric] == nil {
		sv.memo[metric] = make(map[string]float64)
	}
	return sv.value(g, metric, deadline, 0)
}

// value is the memoized age-dependent regeneration recursion; depth is
// the number of events between the solved state and g.
func (sv *Solver) value(g *gstate, metric metricKind, deadline, depth int) (float64, error) {
	// Terminal configurations.
	doomed := false
	done := len(g.groups) == 0
	for k, q := range g.q {
		if q > 0 {
			done = false
			if !g.up[k] {
				doomed = true
			}
		}
	}
	for _, grp := range g.groups {
		if !g.up[grp.dst] {
			doomed = true // will arrive at a dead server: unrecoverable
		}
	}
	switch metric {
	case mReliability:
		if doomed {
			return 0, nil
		}
		if done {
			return 1, nil
		}
	case mMean:
		if doomed {
			return 0, fmt.Errorf("core: failure state reached in mean-time recursion")
		}
		if done {
			return 0, nil
		}
	case mQoS:
		if doomed || deadline <= 0 {
			return 0, nil
		}
		if done {
			return 1, nil
		}
	}

	memo := sv.memo[metric]
	if v, ok := memo[string(sv.key(g, deadline))]; ok {
		return v, nil
	}
	if sv.MaxStates > 0 && len(memo) >= sv.MaxStates {
		return 0, fmt.Errorf("core: memo table exceeded MaxStates=%d (coarsen Step=%g, lower Horizon=%g, shrink the workload, or use Algorithm 1)",
			sv.MaxStates, sv.Step, sv.Horizon)
	}
	key := string(sv.keyBuf) // the recursion below reuses the buffer

	clocks := sv.activeClocks(g)
	if len(clocks) == 0 {
		// Not done, not doomed, but nothing can happen: only possible if
		// tasks are queued at a server whose failure already occurred
		// (caught above) — treat as model inconsistency.
		return 0, fmt.Errorf("core: deadlocked configuration %+v", g)
	}
	if depth == len(sv.succ) {
		sv.succ = append(sv.succ, &gstate{})
	}
	succ := sv.succ[depth]

	maxCells := int(sv.Horizon / sv.Step)
	if metric == mQoS && deadline < maxCells {
		maxCells = deadline
	}

	// Joint survival at cell boundaries and per-clock conditional in-cell
	// firing probabilities drive the event-split integral
	//   Σ_cells Σ_e P(τ ∈ cell, τ = clock e) · V(successor).
	surv := make([]float64, len(clocks)) // S_e(i·h) running values
	for i := range surv {
		surv[i] = 1
	}
	pIn := make([]float64, len(clocks))
	var result float64
	var accMean float64 // E[τ] accumulator (mean metric only)
	joint := 1.0
	for cell := 0; cell < maxCells && joint > sv.EpsSurvival; cell++ {
		t1 := float64(cell+1) * sv.Step
		nextJoint := 1.0
		for i, c := range clocks {
			s1 := c.resid.Survival(t1)
			pIn[i] = 0
			if surv[i] > 0 {
				pIn[i] = 1 - s1/surv[i]
			}
			surv[i] = s1
			nextJoint *= s1
		}
		cellMass := joint - nextJoint
		joint = nextJoint
		if cellMass <= 0 {
			continue
		}
		var wsum float64
		for _, p := range pIn {
			wsum += p
		}
		if wsum <= 0 {
			continue
		}
		if metric == mMean {
			accMean += cellMass * (float64(cell) + 0.5) * sv.Step
		}
		nd := -1
		if metric == mQoS {
			nd = deadline - (cell + 1)
		}
		for i, c := range clocks {
			if pIn[i] == 0 {
				continue
			}
			prob := cellMass * pIn[i] / wsum
			sv.successor(succ, g, c, cell+1)
			v, err := sv.value(succ, metric, nd, depth+1)
			if err != nil {
				return 0, err
			}
			result += prob * v
		}
	}
	if metric == mMean {
		result += accMean
	}
	memo[key] = result
	return result, nil
}

// States returns the number of memoized configurations across all
// metrics, a measure of the recursion's footprint.
func (sv *Solver) States() int {
	return len(sv.memo[mReliability]) + len(sv.memo[mMean]) + len(sv.memo[mQoS])
}
