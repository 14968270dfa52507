// Package markov implements the Markovian (all-exponential) model of the
// paper's earlier work ([2], [7]): when every random time in the DCS is
// exponential, the memoryless property makes the age matrix redundant and
// the three performance metrics satisfy algebraic recurrences with
// constant coefficients — no integrals.
//
// The package is the reproduction's exact, grid-free reference for any
// number of servers: on genuinely exponential inputs the age-dependent
// solver (internal/core), the lattice solver (internal/direct) and the
// simulator must agree with it, which the cross-validation tests exploit.
// (The *Markovian approximation* the paper evaluates against — every law
// replaced by an exponential of the same mean, Figs. 1–2 and Tables I–II —
// is the Exponential family evaluated through internal/direct; see
// internal/exper.)
//
// Mean time and reliability come from the constant-coefficient
// recurrences; the QoS (a transient absorption probability) is computed
// by uniformization of the underlying continuous-time Markov chain.
package markov

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"dtr/dist"
	"dtr/internal/core"
)

// System is an n-server Markovian DCS described purely by rates.
type System struct {
	// Mu[k] is the service rate of server k.
	Mu []float64
	// Lambda[k] is the failure rate of server k (0 = reliable).
	Lambda []float64
	// TransferRate returns the delivery rate of a group of `tasks` tasks
	// from src to dst.
	TransferRate func(tasks, src, dst int) float64

	memoMean map[string]float64
	memoRel  map[string]float64
	// keyBuf and keyGroups are the scratch key encodes into.
	keyBuf    []byte
	keyGroups []core.Group
}

// FromModel extracts a Markovian system from a core.Model whose laws are
// all exponential (or Never for failures); it errors if any law is not.
func FromModel(m *core.Model) (*System, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	s := &System{}
	for k := 0; k < m.N(); k++ {
		e, ok := m.Service[k].(dist.Exponential)
		if !ok {
			return nil, fmt.Errorf("markov: service law of server %d is %v, not exponential", k, m.Service[k])
		}
		s.Mu = append(s.Mu, e.Rate)
		switch f := m.Failure[k].(type) {
		case dist.Never:
			s.Lambda = append(s.Lambda, 0)
		case dist.Exponential:
			s.Lambda = append(s.Lambda, f.Rate)
		default:
			return nil, fmt.Errorf("markov: failure law of server %d is %v, not exponential/never", k, m.Failure[k])
		}
	}
	transfer := m.Transfer
	s.TransferRate = func(tasks, src, dst int) float64 {
		e, ok := transfer(tasks, src, dst).(dist.Exponential)
		if !ok {
			panic(fmt.Sprintf("markov: transfer law for %d tasks %d->%d is not exponential", tasks, src, dst))
		}
		return e.Rate
	}
	return s, nil
}

// mstate is the discrete Markovian state: queue lengths, server liveness
// and the in-flight groups.
type mstate struct {
	q      []int
	up     []bool
	groups []core.Group
}

func (s *System) stateOf(st *core.State) (*mstate, error) {
	if n := len(s.Mu); len(st.Queue) != n || len(st.Up) != n {
		return nil, fmt.Errorf("markov: state has %d servers, system %d", len(st.Queue), n)
	}
	return (&mstate{q: st.Queue, up: st.Up, groups: st.Groups}).clone(), nil
}

func (m *mstate) clone() *mstate {
	return &mstate{
		q:      slices.Clone(m.q),
		up:     slices.Clone(m.up),
		groups: slices.Clone(m.groups),
	}
}

// key encodes the state into keyBuf, groups in a canonical order (the
// value does not depend on how the state lists them).
func (s *System) key(m *mstate) []byte {
	buf := s.keyBuf[:0]
	for k, q := range m.q {
		buf = binary.AppendVarint(buf, int64(q))
		if m.up[k] {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	gs := append(s.keyGroups[:0], m.groups...)
	slices.SortFunc(gs, func(a, b core.Group) int {
		return cmp.Or(cmp.Compare(a.Dst, b.Dst), cmp.Compare(a.Tasks, b.Tasks), cmp.Compare(a.Src, b.Src))
	})
	for _, g := range gs {
		buf = binary.AppendVarint(buf, int64(g.Dst))
		buf = binary.AppendVarint(buf, int64(g.Tasks))
		buf = binary.AppendVarint(buf, int64(g.Src))
	}
	s.keyBuf, s.keyGroups = buf, gs
	return buf
}

func (m *mstate) done() bool {
	for _, q := range m.q {
		if q > 0 {
			return false
		}
	}
	return len(m.groups) == 0
}

func (m *mstate) doomed() bool {
	for k, q := range m.q {
		if !m.up[k] && q > 0 {
			return true
		}
	}
	for _, g := range m.groups {
		if !m.up[g.Dst] {
			return true
		}
	}
	return false
}

// transition is one exponential event: its rate and successor state.
type transition struct {
	rate float64
	next *mstate
}

// transitions enumerates the regeneration events of the Markovian chain.
func (s *System) transitions(m *mstate) []transition {
	var ts []transition
	for k := range m.q {
		if m.up[k] && m.q[k] > 0 && s.Mu[k] > 0 {
			n := m.clone()
			n.q[k]--
			ts = append(ts, transition{rate: s.Mu[k], next: n})
		}
		if m.up[k] && s.Lambda[k] > 0 {
			n := m.clone()
			n.up[k] = false
			ts = append(ts, transition{rate: s.Lambda[k], next: n})
		}
	}
	for i, g := range m.groups {
		n := m.clone()
		n.groups = slices.Delete(n.groups, i, i+1)
		n.q[g.Dst] += g.Tasks
		ts = append(ts, transition{rate: s.TransferRate(g.Tasks, g.Src, g.Dst), next: n})
	}
	return ts
}

// MeanTime solves the constant-coefficient recurrence
// T̄(S) = 1/Λ + Σ_e (λ_e/Λ)·T̄(S_e); it requires reliable servers.
func (s *System) MeanTime(st *core.State) (float64, error) {
	for _, l := range s.Lambda {
		if l > 0 {
			return 0, fmt.Errorf("markov: mean execution time requires reliable servers")
		}
	}
	return s.solve(st, &s.memoMean, true)
}

// Reliability solves R(S) = Σ_e (λ_e/Λ)·R(S_e) with R = 1 on completion
// and R = 0 on any stranded task.
func (s *System) Reliability(st *core.State) (float64, error) {
	return s.solve(st, &s.memoRel, false)
}

func (s *System) solve(st *core.State, memo *map[string]float64, mean bool) (float64, error) {
	m, err := s.stateOf(st)
	if err != nil {
		return 0, err
	}
	if *memo == nil {
		*memo = make(map[string]float64)
	}
	return s.rec(m, *memo, mean)
}

// rec is the memoized first-step recurrence V(S) = c + Σ_e (λ_e/Λ)·V(S_e):
// for the mean time c = 1/Λ and V = 0 on completion; for the reliability
// c = 0, V = 1 on completion and V = 0 once a task is stranded.
func (s *System) rec(m *mstate, memo map[string]float64, mean bool) (float64, error) {
	if !mean && m.doomed() {
		return 0, nil
	}
	if m.done() {
		if mean {
			return 0, nil
		}
		return 1, nil
	}
	if v, ok := memo[string(s.key(m))]; ok {
		return v, nil
	}
	key := string(s.keyBuf) // the recursion below reuses the buffer
	ts := s.transitions(m)
	var total float64
	for _, tr := range ts {
		total += tr.rate
	}
	if total <= 0 {
		return 0, fmt.Errorf("markov: absorbing non-final state %+v", m)
	}
	var v float64
	if mean {
		v = 1 / total
	}
	for _, tr := range ts {
		sub, err := s.rec(tr.next, memo, mean)
		if err != nil {
			return 0, err
		}
		v += tr.rate / total * sub
	}
	memo[key] = v
	return v, nil
}

// edge is a transition of the enumerated chain: its rate and the index of
// the state it leads to.
type edge struct {
	rate float64
	to   int
}

// QoS computes P(T(S) < tm) by uniformization: the CTMC is embedded in a
// Poisson process of rate Λ_max (the maximal exit rate over reachable
// states), and the absorption probability by tm is the Poisson-weighted
// sum of the DTMC's absorption probabilities by n jumps.
func (s *System) QoS(st *core.State, tm float64) (float64, error) {
	if tm < 0 || math.IsNaN(tm) {
		return 0, fmt.Errorf("markov: invalid deadline %g", tm)
	}
	m0, err := s.stateOf(st)
	if err != nil {
		return 0, err
	}
	if m0.doomed() {
		return 0, nil
	}
	if m0.done() {
		if tm > 0 {
			return 1, nil
		}
		return 0, nil
	}

	// Enumerate the reachable state space (it is finite: queues only
	// shrink except by deliveries of finitely many groups). Absorbing
	// states — done or doomed — keep no edges and a zero exit rate.
	index := map[string]int{}
	var states []*mstate
	var edges [][]edge
	var outRate []float64
	add := func(m *mstate) int {
		if i, ok := index[string(s.key(m))]; ok {
			return i
		}
		index[string(s.keyBuf)] = len(states)
		states = append(states, m)
		edges = append(edges, nil)
		outRate = append(outRate, 0)
		return len(states) - 1
	}
	add(m0)
	for i := 0; i < len(states); i++ {
		m := states[i]
		if m.done() || m.doomed() {
			continue
		}
		for _, tr := range s.transitions(m) {
			outRate[i] += tr.rate
			edges[i] = append(edges[i], edge{rate: tr.rate, to: add(tr.next)})
		}
	}
	lambdaMax := slices.Max(outRate)
	if lambdaMax == 0 {
		return 0, fmt.Errorf("markov: no active transitions from %+v", m0)
	}

	// DTMC step matrix P = I + Q/Λ_max applied to the "absorbed by now"
	// indicator, iterated with Poisson(Λ_max·tm) weights. An absorbing
	// state's row is the identity, so it keeps its indicator exactly.
	cur := make([]float64, len(states)) // P(done | start here, k jumps so far)
	for i, m := range states {
		if m.done() {
			cur[i] = 1
		}
	}
	// Poisson(Λ_max·tm) weights in log space (the naive recurrence
	// underflows for large Λ·tm), run until the cumulative weight covers
	// 1-1e-12 or the absorption vector has converged.
	lt := lambdaMax * tm
	poisLog := func(j int) float64 {
		lg, _ := math.Lgamma(float64(j) + 1)
		return -lt + float64(j)*math.Log(lt) - lg
	}
	if lt == 0 {
		return cur[0], nil // m0 was enumerated first
	}
	w := math.Exp(poisLog(0))
	cum := w
	result := w * cur[0]
	maxJumps := int(lt + 12*math.Sqrt(lt+1) + 50)
	next := make([]float64, len(states))
	for j := 1; j <= maxJumps && cum < 1-1e-12; j++ {
		var delta float64
		for i := range next {
			v := (1 - outRate[i]/lambdaMax) * cur[i]
			for _, e := range edges[i] {
				v += e.rate / lambdaMax * cur[e.to]
			}
			delta = max(delta, math.Abs(v-cur[i]))
			next[i] = v
		}
		cur, next = next, cur
		w = math.Exp(poisLog(j))
		cum += w
		result += w * cur[0]
		// Once the jump-chain absorption vector is stationary, the
		// remaining Poisson mass contributes the limiting value exactly.
		if delta < 1e-15 {
			result += (1 - cum) * cur[0]
			break
		}
	}
	return result, nil
}

// States reports the number of memoized configurations, a cost metric.
func (s *System) States() int {
	return len(s.memoMean) + len(s.memoRel)
}
