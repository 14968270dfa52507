// Package core implements the paper's primary contribution: the
// age-dependent state-space model of a heterogeneous distributed
// computing system (DCS) and the regeneration-based recursive solver for
// the three performance metrics of Theorem 1 — the mean workload
// execution time, the QoS (probability of finishing by a deadline), and
// the service reliability (probability of ever finishing).
//
// The system state S(t) = (M(t), F(t), C(t), a(t)) consists of the queue
// vector M, the failure-perception matrix F, the network state C (task
// groups in transit) and the continuous age matrix a, which records the
// elapsed age of every non-exponential clock so that the process
// regenerates at the first event even though the underlying times are
// non-Markovian.
package core

import (
	"fmt"
	"math"

	"dtr/dist"
)

// Model describes an n-server DCS: who serves how fast, who fails when,
// and what the network does to messages. All distributions are the laws
// of the *fresh* (age-zero) random times; the solvers age them as the
// system evolves.
type Model struct {
	// Service[k] is the law of W_k, the service time of one task at
	// server k.
	Service []dist.Dist

	// Failure[k] is the law of Y_k, the permanent failure time of server
	// k. Use dist.Never for a completely reliable server; the mean
	// execution time is only defined when every server is reliable
	// (otherwise the execution time is infinite with positive
	// probability).
	Failure []dist.Dist

	// FN returns the law of X_{src,dst}, the transfer time of a
	// failure-notice packet. A nil FN disables failure-notice traffic
	// (the metrics of this paper are invariant to it; see Solver.TrackFN).
	FN func(src, dst int) dist.Dist

	// Transfer returns the law of Z, the transfer time of a group of
	// `tasks` tasks from src to dst. The paper models the group transfer
	// as a single random variable whose distribution may depend on the
	// group size (its testbed transfers scale with the number of tasks).
	Transfer func(tasks, src, dst int) dist.Dist

	// Repl[k] is server k's task replication factor: every task run at
	// server k is dispatched as Repl[k] i.i.d. copies and completes when
	// the first copy does (cancel-on-first-complete). nil, or an entry
	// of 0 or 1, means no replication. The effective per-task service
	// law is the min-of-k order statistic of Service[k]; analytic
	// consumers obtain it via EffectiveService/EffectiveModel while the
	// simulator spawns the copies explicitly.
	Repl []int
}

// ReplFactor returns server k's replication factor (1 when unset).
func (m *Model) ReplFactor(k int) int {
	if m.Repl == nil || k >= len(m.Repl) || m.Repl[k] <= 1 {
		return 1
	}
	return m.Repl[k]
}

// Replicated reports whether any server has a replication factor above 1.
func (m *Model) Replicated() bool {
	for k := range m.Service {
		if m.ReplFactor(k) > 1 {
			return true
		}
	}
	return false
}

// WithRepl returns a shallow copy of the model with the given replication
// factors (nil clears them). The slice is copied.
func (m *Model) WithRepl(factors []int) *Model {
	c := *m
	if factors == nil {
		c.Repl = nil
	} else {
		c.Repl = append([]int(nil), factors...)
	}
	return &c
}

// EffectiveService returns the per-task completion law at server k under
// its replication factor: Service[k] itself for factor 1 (bit-identical —
// no wrapper), the min-of-k order statistic otherwise.
func (m *Model) EffectiveService(k int) dist.Dist {
	return dist.NewMinOfK(m.Service[k], m.ReplFactor(k))
}

// EffectiveModel returns a view of the model in which every service law
// is the replication-effective one and Repl is cleared. The analytic
// solvers consume this view: a task's k copies start and cancel together,
// so the per-task service process is exactly one draw from the min-of-k
// law (and ages compose — Aged commutes with the minimum). Returns the
// receiver itself when no server replicates, preserving bit-identity.
func (m *Model) EffectiveModel() *Model {
	if !m.Replicated() {
		return m
	}
	c := *m
	c.Service = make([]dist.Dist, len(m.Service))
	for k := range m.Service {
		c.Service[k] = m.EffectiveService(k)
	}
	c.Repl = nil
	return &c
}

// N returns the number of servers in the model.
func (m *Model) N() int { return len(m.Service) }

// Validate checks structural consistency of the model.
func (m *Model) Validate() error {
	n := m.N()
	if n == 0 {
		return fmt.Errorf("core: model has no servers")
	}
	if len(m.Failure) != n {
		return fmt.Errorf("core: %d servers but %d failure laws", n, len(m.Failure))
	}
	for k, d := range m.Service {
		if d == nil {
			return fmt.Errorf("core: server %d has nil service law", k)
		}
	}
	for k, d := range m.Failure {
		if d == nil {
			return fmt.Errorf("core: server %d has nil failure law", k)
		}
	}
	if m.Transfer == nil {
		return fmt.Errorf("core: model has nil Transfer")
	}
	if m.Repl != nil {
		if len(m.Repl) != n {
			return fmt.Errorf("core: %d servers but %d replication factors", n, len(m.Repl))
		}
		for k, f := range m.Repl {
			if f < 0 {
				return fmt.Errorf("core: negative replication factor %d at server %d", f, k)
			}
		}
	}
	return nil
}

// Reliable reports whether every server has a Never failure law, the
// regime in which the mean execution time is finite.
func (m *Model) Reliable() bool {
	for _, d := range m.Failure {
		if _, ok := d.(dist.Never); !ok {
			return false
		}
	}
	return true
}

// Policy is a DTR (dynamic task reallocation) policy: L[i][j] tasks are
// sent from server i to server j at t = 0. The diagonal must be zero.
type Policy [][]int

// NewPolicy returns an all-zero policy for n servers.
func NewPolicy(n int) Policy {
	p := make(Policy, n)
	for i := range p {
		p[i] = make([]int, n)
	}
	return p
}

// Policy2 returns the two-server policy (L12, L21), the search space of
// the paper's exact optimization problems (3) and (4).
func Policy2(l12, l21 int) Policy {
	return Policy{{0, l12}, {l21, 0}}
}

// Validate checks the policy against the initial allocation: moved counts
// are non-negative integers, nothing moves to itself, and no server sends
// more than it holds.
func (p Policy) Validate(initial []int) error {
	n := len(initial)
	if len(p) != n {
		return fmt.Errorf("core: policy for %d servers, allocation for %d", len(p), n)
	}
	for i, row := range p {
		if len(row) != n {
			return fmt.Errorf("core: policy row %d has %d entries, want %d", i, len(row), n)
		}
		sent := 0
		for j, l := range row {
			if l < 0 {
				return fmt.Errorf("core: negative reallocation L[%d][%d] = %d", i, j, l)
			}
			if i == j && l != 0 {
				return fmt.Errorf("core: self-reallocation L[%d][%d] = %d", i, j, l)
			}
			sent += l
		}
		if sent > initial[i] {
			return fmt.Errorf("core: server %d sends %d tasks but holds %d", i, sent, initial[i])
		}
	}
	return nil
}

// Converging returns the first server that receives task groups from more
// than one sender under the policy, or −1: with at most one group per
// server the canonical scenario's finish-time laws are exact, otherwise
// they depend on the groups' arrival order (the paper's §IV).
func (p Policy) Converging() int {
	for dst := range p {
		groups := 0
		for _, row := range p {
			if dst < len(row) && row[dst] > 0 {
				groups++
			}
		}
		if groups > 1 {
			return dst
		}
	}
	return -1
}

// Group is a batch of tasks in transit through the network: the paper's
// network-state matrix C tracks exactly these, and the age matrix a_C
// tracks their elapsed transfer ages.
type Group struct {
	Src, Dst int
	Tasks    int
	Age      float64
}

// FNPacket is a failure-notice message in transit from the (failed)
// server Src to Dst; its transfer age lives in the paper's a_F matrix
// off-diagonal.
type FNPacket struct {
	Src, Dst int
	Age      float64
}

// State is the age-dependent system state S = (M, F, C, a).
type State struct {
	// Queue[k] is M_k, the number of tasks queued at server k.
	Queue []int
	// Up[k] is the true functional state of server k (diagonal of F).
	Up []bool
	// KnowsDown[i][j] reports that server i has learned (via a delivered
	// failure notice) that server j failed — the off-diagonal of F.
	KnowsDown [][]bool
	// AgeW[k] is the age of the service time in progress at server k
	// (meaningful only when the server is up and non-empty).
	AgeW []float64
	// AgeY[k] is the age of server k's failure clock.
	AgeY []float64
	// Groups are the task batches in transit (the C matrix plus a_C).
	Groups []Group
	// FNs are the failure notices in transit.
	FNs []FNPacket
}

// NewState returns the canonical post-reallocation state the paper's
// experiments start from: queues r_i = m_i − Σ_j L_ij, every L_ij > 0 a
// fresh group in transit, all servers up, and the age matrix null.
func NewState(m *Model, initial []int, p Policy) (*State, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := m.N()
	if len(initial) != n {
		return nil, fmt.Errorf("core: %d servers but %d initial queue lengths", n, len(initial))
	}
	for k, q := range initial {
		if q < 0 {
			return nil, fmt.Errorf("core: negative initial queue at server %d", k)
		}
	}
	if err := p.Validate(initial); err != nil {
		return nil, err
	}
	s := &State{
		Queue:     make([]int, n),
		Up:        make([]bool, n),
		KnowsDown: make([][]bool, n),
		AgeW:      make([]float64, n),
		AgeY:      make([]float64, n),
	}
	for i := range s.Up {
		s.Up[i] = true
		s.KnowsDown[i] = make([]bool, n)
	}
	copy(s.Queue, initial)
	for i, row := range p {
		for j, l := range row {
			if l == 0 {
				continue
			}
			s.Queue[i] -= l
			s.Groups = append(s.Groups, Group{Src: i, Dst: j, Tasks: l})
		}
	}
	return s, nil
}

// Clone returns a deep copy of s.
func (s *State) Clone() *State {
	c := &State{
		Queue:     append([]int(nil), s.Queue...),
		Up:        append([]bool(nil), s.Up...),
		KnowsDown: make([][]bool, len(s.KnowsDown)),
		AgeW:      append([]float64(nil), s.AgeW...),
		AgeY:      append([]float64(nil), s.AgeY...),
		Groups:    append([]Group(nil), s.Groups...),
		FNs:       append([]FNPacket(nil), s.FNs...),
	}
	for i, row := range s.KnowsDown {
		c.KnowsDown[i] = append([]bool(nil), row...)
	}
	return c
}

// Done reports the paper's completion event: M(t) = 0 and C(t) = 0.
func (s *State) Done() bool {
	for _, q := range s.Queue {
		if q > 0 {
			return false
		}
	}
	return len(s.Groups) == 0
}

// Doomed reports that the workload can never complete: some task is
// queued at (or in transit to) a failed server, and the model has no
// recovery mechanism.
func (s *State) Doomed() bool {
	for k, up := range s.Up {
		if !up && s.Queue[k] > 0 {
			return true
		}
	}
	for _, g := range s.Groups {
		if !s.Up[g.Dst] {
			return true
		}
	}
	return false
}

// TotalTasks returns the number of unserved tasks (queued plus in
// transit).
func (s *State) TotalTasks() int {
	t := 0
	for _, q := range s.Queue {
		t += q
	}
	for _, g := range s.Groups {
		t += g.Tasks
	}
	return t
}

// Advance adds dt to every age in the state (the "all clocks aged by s"
// step of the regeneration argument).
func (s *State) Advance(dt float64) {
	if dt < 0 || math.IsNaN(dt) {
		panic(fmt.Sprintf("core: negative age advance %g", dt))
	}
	for k := range s.AgeW {
		s.AgeW[k] += dt
		s.AgeY[k] += dt
	}
	for i := range s.Groups {
		s.Groups[i].Age += dt
	}
	for i := range s.FNs {
		s.FNs[i].Age += dt
	}
}
