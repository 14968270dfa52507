// Package direct is the fast solver for the paper's canonical evaluation
// scenario: an n-server DCS that executes one DTR policy at t = 0 (queues
// r_i = m_i − Σ_j L_ij, every L_ij > 0 a task group in flight, null age
// matrix) and then evolves without further control actions.
//
// In that scenario the servers interact only through the groups launched
// at t = 0, so each server's finish time
//
//	F_k = max(S_{r_k}, Z_k) + S'_{g_k}
//
// (initial backlog sum, race with the incoming batch's arrival, then the
// batch) is independent of the others', and the three metrics reduce to
// functionals of the finish-time distributions:
//
//	T̄   = E[max_k F_k]
//	R_TM = Π_k P(F_k ≤ TM)
//	R_∞  = Π_k E[S_{Y_k}(F_k)]
//
// This is exact whenever no server receives more than one group — every
// two-server policy, and the n-server policies the (initial, policy)
// metric methods accept. With several groups converging on one server the
// exact law would integrate over every arrival order; Bounds brackets it
// instead by the paper's §IV proposal, "all reallocated tasks arrive as a
// single batch": delaying every arrival at a work-conserving server can
// only postpone its finish and advancing them can only hasten it, so a
// batch at min(Z_1..Z_k) bounds the finish time from below pathwise and
// one at max(Z_1..Z_k) from above.
//
// The finish-time laws are built by k-fold lattice convolutions
// (internal/gridfn), which makes full policy sweeps at the paper's scale
// (m1 = 100, m2 = 50) feasible — this is the engine behind Figs. 1–3 and
// Tables I–II. The (m1, m2, l12, l21) methods are the two-server form the
// sweeps run, allocation-free per point; both forms read one set of
// per-server tables through one finish-law builder. The general recursion
// of internal/core computes the same quantities for arbitrary
// configurations and is validated against this solver in the tests.
package direct

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/gridfn"
	"dtr/internal/obs"
)

// Solver evaluates canonical-scenario metrics on a fixed time lattice.
// It is one request's view of a model's Tables: the replication factors
// it may evaluate, the tail-correction switch, the trace span and the
// numerical-health accumulators are its own; the prefix chains, spectra,
// transfer lattices and scratch are the tables'. Its results and its
// Diagnostics are therefore a pure function of what was asked of this
// view, whatever other views of the same tables exist.
//
// A Solver is safe for concurrent use: the tables are immutable once
// published, and their two lazy caches (spectra of the prefixes,
// transfer-time lattices) are guarded by the tables' lock. A cache miss
// computes outside the lock and discards the duplicate if another
// goroutine stored first, and every evaluation works in pooled scratch
// it fully overwrites, so concurrent sweeps over the policy lattice
// return bit-identical values to a serial scan. Set TailCorrect before
// sharing the solver across goroutines.
type Solver struct {
	t *Tables
	// chains are the tables' factor chains 1..len(chains) this view
	// reads; the tables may hold more.
	chains []*chain

	// TailCorrect adds the single-big-jump tail-excess estimate to mean
	// execution times: for subexponential laws (the paper's Pareto
	// models) the probability mass beyond the lattice horizon H is
	// dominated by one component being huge, so
	// E[(F−H)⁺] ≈ Σ_i E[(X_i − (H − E[F − X_i]))⁺] over F's constituent
	// draws. Light-tailed laws contribute ~0, so the correction is safe
	// to leave on (NewSolver's default).
	TailCorrect bool

	span *obs.Span

	// Numerical-health accumulators of this view's solve phase (see
	// Diagnostics); the atomics accumulate across concurrent folds with
	// order-independent reductions.
	folds       atomic.Uint64
	evalCount   atomic.Uint64
	residualMax maxFloat64
	negMassMax  maxFloat64
	tailMax     maxFloat64
}

// NewSolver starts the service-sum tables of a model and returns the
// first view of them.
func NewSolver(m *core.Model, cfg Config) (*Solver, error) {
	t, err := NewTables(m, cfg)
	if err != nil {
		return nil, err
	}
	s, _ := t.View(cfg.MaxFactor, cfg.Span)
	return s, nil
}

// MaxFactor returns the largest replication factor the solver has prefix
// tables for.
func (s *Solver) MaxFactor() int { return len(s.chains) }

// DefaultFactors returns the factors the factor-less two-server metric
// methods use: the Repl entries (1 when unset) of the model's first and
// last server.
func (s *Solver) DefaultFactors() [2]int {
	m := s.t.model
	return [2]int{m.ReplFactor(0), m.ReplFactor(m.N() - 1)}
}

// Dx returns the lattice step.
func (s *Solver) Dx() float64 { return s.t.dx }

// Horizon returns the last lattice time point.
func (s *Solver) Horizon() float64 { return float64(s.t.n-1) * s.t.dx }

// scratch is what one evaluation works in: the fold buffers and the
// servers' finish laws. Every entry is overwritten before it is read, so
// results do not depend on which scratch the pool handed out.
type scratch struct {
	work *gridfn.Work
	srv  []leg
	// acc carries the running maximum of a mean over more than two
	// servers (empty otherwise).
	acc gridfn.Lattice
}

// leg is one server's share of an evaluation: its finish law fin as
// finishLaw last built it — in f, or with no incoming batch the prefix
// table's own entry — and what it was built from, kept for the tail-excess
// estimate (z is nil without a batch or with a folded arrival).
type leg struct {
	f           gridfn.Lattice
	fin         *gridfn.Lattice
	own, g, fac int
	z           dist.Dist
}

// newScratch must not reach the tables: see Tables.pool.
func newScratch(servers int, dx float64, n int) *scratch {
	sc := &scratch{work: gridfn.NewWork(n), srv: make([]leg, servers)}
	for k := range sc.srv {
		sc.srv[k].f = *gridfn.New(dx, n)
	}
	if servers > 2 {
		sc.acc = *gridfn.New(dx, n)
	}
	return sc
}

// Finish returns the finish-time law of server k with `own` initial tasks
// and an incoming batch of `g` tasks from server src (g = 0 for none):
// F = max(S_own, Z) + S'_g. A server with no work finishes at time 0.
// The server's default replication factor applies.
func (s *Solver) Finish(k, own, g, src int) (*gridfn.Lattice, error) {
	sc := s.t.pool.Get().(*scratch)
	defer s.t.pool.Put(sc)
	if err := s.finishLaw(sc, k, own, g, s.t.model.ReplFactor(k), s.transferOf(g, src, k)); err != nil {
		return nil, err
	}
	return sc.srv[k].fin.Clone(), nil
}

// finishLaw is the one finish-law builder: server k's law with `own`
// initial tasks under replication factor fac (every task's service draw
// is the min-of-fac order statistic of the base law) and a batch of g
// tasks arriving at z.lat — a group's transfer time, or the fold of
// several. It builds the law in sc.srv[k].f — or, with no batch, takes
// the prefix table's own entry — and leaves it in sc.srv[k].fin for the
// caller to read before it releases sc. The batch is folded in by the same
// kernel that built the prefix tables (gridfn's Fold), against the
// cached spectrum.
func (s *Solver) finishLaw(sc *scratch, k, own, g, fac int, z transfer) error {
	if fac < 1 || fac > len(s.chains) {
		return fmt.Errorf("direct: replication factor %d at server %d outside [1, %d] (raise Config.MaxFactor)", fac, k, len(s.chains))
	}
	c := s.chains[fac-1]
	if bound := s.t.maxQueue[k]; own < 0 || g < 0 || own > bound || g > bound {
		return fmt.Errorf("direct: queue %d/%d outside [0, MaxQueue=%d] at server %d", own, g, bound, k)
	}
	l := &sc.srv[k]
	l.own, l.g, l.fac, l.z = own, g, fac, z.law
	l.fin = s.prefix(c, k, own, sc.work)
	if g > 0 {
		l.fin.MaxIndepInto(&l.f, z.lat) // the race max(S_own, Z)
		l.fin = &l.f
		s.noteFold(s.freqOf(k, fac, g, sc.work).Fold(l.fin, l.fin, sc.work))
	}
	return nil
}

// Metrics bundles the three paper metrics for one policy, along with the
// probability mass the lattice could not represent (heavy-tail overflow):
// Mean is exact up to that tail (which is attributed at the horizon, a
// lower bound), QoS and Reliability treat it conservatively as failure.
type Metrics struct {
	Mean        float64
	QoS         float64
	Reliability float64
	TailMass    float64
}

// finishPairRepl builds both servers' finish-time laws in sc.srv for the
// two-server policy (l12, l21) on the workload (m1, m2) under explicit
// per-server replication factors.
func (s *Solver) finishPairRepl(sc *scratch, m1, m2, l12, l21 int, fac [2]int) error {
	if len(sc.srv) != 2 {
		return fmt.Errorf("direct: (L12, L21) policies address two servers, the model has %d", len(sc.srv))
	}
	if l12 < 0 || l21 < 0 || l12 > m1 || l21 > m2 {
		return fmt.Errorf("direct: policy (L12=%d, L21=%d) infeasible for workload (%d, %d)", l12, l21, m1, m2)
	}
	evals.Inc()
	if err := s.finishLaw(sc, 0, m1-l12, l21, fac[0], s.transferOf(l21, 1, 0)); err != nil {
		return err
	}
	if err := s.finishLaw(sc, 1, m2-l21, l12, fac[1], s.transferOf(l12, 0, 1)); err != nil {
		return err
	}
	s.noteFinish(sc.tailMass())
	return nil
}

// finishFleet builds every server's finish-time law in sc.srv for the
// policy p on the allocation initial, under the model's replication
// factors. A server's incoming groups count as one batch arriving with
// the earliest of their transfers, or with the latest when late is set;
// with at most one group per server the two coincide and the laws are
// exact.
func (s *Solver) finishFleet(sc *scratch, initial []int, p core.Policy, late bool) error {
	if len(initial) != len(sc.srv) {
		return fmt.Errorf("direct: allocation for %d servers, model has %d", len(initial), len(sc.srv))
	}
	if err := p.Validate(initial); err != nil {
		return err
	}
	evals.Inc()
	for k := range sc.srv {
		own, batch := initial[k], 0
		var z transfer
		for i, row := range p {
			own -= p[k][i]
			g := row[k]
			if g == 0 {
				continue
			}
			zi := s.transferOf(g, i, k)
			switch {
			case batch == 0:
				z = zi
			case late:
				z = transfer{lat: z.lat.MaxIndep(zi.lat)}
			default:
				z = transfer{lat: z.lat.MinIndep(zi.lat)}
			}
			batch += g
		}
		if err := s.finishLaw(sc, k, own, batch, s.t.model.ReplFactor(k), z); err != nil {
			return err
		}
	}
	s.noteFinish(sc.tailMass())
	return nil
}

// exact is the n-server form of the metric methods: read applied to the
// finish laws of the policy p on the allocation initial, which no more
// than one group per server may converge on.
func exact[T any](s *Solver, initial []int, p core.Policy, read func(*scratch) T) (v T, err error) {
	if k := p.Converging(); k >= 0 {
		return v, fmt.Errorf("direct: more than one task group converges on server %d, so its finish law depends on the arrival order; Bounds brackets the metrics", k)
	}
	sc := s.t.pool.Get().(*scratch)
	defer s.t.pool.Put(sc)
	if err := s.finishFleet(sc, initial, p, false); err != nil {
		return v, err
	}
	return read(sc), nil
}

func (sc *scratch) tailMass() float64 {
	var tail float64
	for k := range sc.srv {
		tail += sc.srv[k].fin.Tail
	}
	return tail
}

// MeanTime returns T̄ = E[max(F1, F2)] for the policy (L12, L21) applied
// to the initial allocation (m1, m2). The model must be reliable.
func (s *Solver) MeanTime(m1, m2, l12, l21 int) (float64, error) {
	return s.MeanTimeRepl(m1, m2, l12, l21, s.DefaultFactors())
}

// MeanTimeRepl is MeanTime under explicit per-server replication factors.
func (s *Solver) MeanTimeRepl(m1, m2, l12, l21 int, fac [2]int) (float64, error) {
	if !s.t.model.Reliable() {
		return 0, errUnreliable
	}
	sc := s.t.pool.Get().(*scratch)
	defer s.t.pool.Put(sc)
	if err := s.finishPairRepl(sc, m1, m2, l12, l21, fac); err != nil {
		return 0, err
	}
	return s.meanOf(sc, s.TailCorrect), nil
}

var errUnreliable = errors.New("direct: mean execution time requires reliable servers")

// MeanTimeN is MeanTime in n-server form (see exact): T̄ = E[max_k F_k].
func (s *Solver) MeanTimeN(initial []int, p core.Policy) (float64, error) {
	if !s.t.model.Reliable() {
		return 0, errUnreliable
	}
	return exact(s, initial, p, func(sc *scratch) float64 { return s.meanOf(sc, s.TailCorrect) })
}

// meanOf returns E[max_k F_k] for the laws in sc.srv — the pairwise
// maximum folded over the servers — with the tail-excess estimate when
// tailCorrect is set.
func (s *Solver) meanOf(sc *scratch, tailCorrect bool) float64 {
	acc, last := sc.srv[0].fin, len(sc.srv)-1
	mean := 0.0
	if last == 0 {
		mean = acc.Mean()
	}
	for k := 1; k <= last; k++ {
		var dst *gridfn.Lattice
		if k < last {
			dst = &sc.acc
		}
		mean = acc.MaxIndepInto(dst, sc.srv[k].fin)
		acc = dst
	}
	if tailCorrect {
		var excess float64
		for k := range sc.srv {
			excess += s.tailExcess(sc, k)
		}
		mean += excess
	}
	return mean
}

// tailExcess estimates E[(F_k − H)⁺] for the finish time of server k by
// the single-big-jump approximation: each constituent draw (one group
// transfer plus own+g service times) exceeds the horizon alone while the
// others sit near their means, so the thresholds are reduced by the
// expected remainder. Under replication the per-task law is the
// min-of-fac order statistic, whose tail is the base tail to the fac-th
// power — strictly lighter, so the correction shrinks with fac.
func (s *Solver) tailExcess(sc *scratch, k int) float64 {
	leg := &sc.srv[k]
	h := s.Horizon()
	c := s.chains[leg.fac-1]
	w, mean := c.eff[k], c.mean[k]()
	nTasks := leg.own + leg.g
	total := float64(nTasks) * mean
	var excess float64
	if nTasks > 0 {
		thr := h - (total - mean)
		if leg.z != nil {
			thr -= leg.z.Mean()
		}
		excess += float64(nTasks) * dist.MeanExcess(w, max(thr, 0))
	}
	if leg.z != nil {
		// The race with Z rarely binds in the tail regime, so its mean is
		// not part of the remainder here.
		excess += dist.MeanExcess(leg.z, max(h-total, 0))
	}
	return excess
}

// QoS returns R_TM = Π_k E[1{F_k ≤ TM}·S_{Y_k}(F_k)]: each server must
// both finish by the deadline and outlive its own finish time. With
// reliable servers the failure factor is 1 and this reduces to
// P(F1 ≤ TM)·P(F2 ≤ TM).
func (s *Solver) QoS(m1, m2, l12, l21 int, tm float64) (float64, error) {
	return s.QoSRepl(m1, m2, l12, l21, tm, s.DefaultFactors())
}

// QoSRepl is QoS under explicit per-server replication factors.
func (s *Solver) QoSRepl(m1, m2, l12, l21 int, tm float64, fac [2]int) (float64, error) {
	if err := checkDeadline(tm); err != nil {
		return 0, err
	}
	sc := s.t.pool.Get().(*scratch)
	defer s.t.pool.Put(sc)
	if err := s.finishPairRepl(sc, m1, m2, l12, l21, fac); err != nil {
		return 0, err
	}
	return s.qosOf(sc, tm), nil
}

// QoSN is QoS in n-server form (see exact).
func (s *Solver) QoSN(initial []int, p core.Policy, tm float64) (float64, error) {
	if err := checkDeadline(tm); err != nil {
		return 0, err
	}
	return exact(s, initial, p, func(sc *scratch) float64 { return s.qosOf(sc, tm) })
}

func checkDeadline(tm float64) error {
	if tm < 0 || math.IsNaN(tm) {
		return fmt.Errorf("direct: invalid deadline %g", tm)
	}
	return nil
}

// qosOf computes Π_k E[1{F_k ≤ tm}·S_{Y_k}(F_k)] over the laws in sc.srv.
func (s *Solver) qosOf(sc *scratch, tm float64) float64 {
	q := 1.0
	for k, y := range s.t.model.Failure {
		f := sc.srv[k].fin
		if _, never := y.(dist.Never); never {
			q *= f.CDFAt(tm)
			continue
		}
		var sum float64
		for i, m := range f.M {
			x := float64(i) * f.Dx
			if x > tm {
				break
			}
			if m != 0 {
				sum += m * y.Survival(x)
			}
		}
		q *= sum
	}
	return q
}

// Reliability returns R_∞ = Π_k E[S_{Y_k}(F_k)]: each server must outlive
// its own finish time; the failure laws are independent of everything
// else, so the factors multiply.
func (s *Solver) Reliability(m1, m2, l12, l21 int) (float64, error) {
	return s.ReliabilityRepl(m1, m2, l12, l21, s.DefaultFactors())
}

// ReliabilityRepl is Reliability under explicit per-server replication
// factors.
func (s *Solver) ReliabilityRepl(m1, m2, l12, l21 int, fac [2]int) (float64, error) {
	sc := s.t.pool.Get().(*scratch)
	defer s.t.pool.Put(sc)
	if err := s.finishPairRepl(sc, m1, m2, l12, l21, fac); err != nil {
		return 0, err
	}
	return s.reliabilityOf(sc), nil
}

// ReliabilityN is Reliability in n-server form (see exact).
func (s *Solver) ReliabilityN(initial []int, p core.Policy) (float64, error) {
	return exact(s, initial, p, s.reliabilityOf)
}

// reliabilityOf computes Π_k E[S_{Y_k}(F_k)] over the laws in sc.srv.
func (s *Solver) reliabilityOf(sc *scratch) float64 {
	r := 1.0
	for k, y := range s.t.model.Failure {
		if _, never := y.(dist.Never); !never {
			r *= sc.srv[k].fin.ExpectSurvival(y.Survival, 0)
		}
	}
	return r
}

// CompletionCDF returns the full distribution function of the workload
// execution time T under the policy, sampled on the solver lattice:
// cdf[i] = P(T ≤ i·Dx()). With failure-prone servers T = ∞ with positive
// probability, so the curve saturates at the service reliability rather
// than 1. The QoS at any deadline is a point on this curve and the mean
// (reliable case) is its complementary integral — the curve is what a
// deadline-shopping caller actually wants.
func (s *Solver) CompletionCDF(m1, m2, l12, l21 int) ([]float64, error) {
	return s.CompletionCDFRepl(m1, m2, l12, l21, s.DefaultFactors())
}

// CompletionCDFRepl is CompletionCDF under explicit per-server
// replication factors.
func (s *Solver) CompletionCDFRepl(m1, m2, l12, l21 int, fac [2]int) ([]float64, error) {
	sc := s.t.pool.Get().(*scratch)
	defer s.t.pool.Put(sc)
	if err := s.finishPairRepl(sc, m1, m2, l12, l21, fac); err != nil {
		return nil, err
	}
	return s.cdfOf(sc), nil
}

// CompletionCDFN is CompletionCDF in n-server form (see exact).
func (s *Solver) CompletionCDFN(initial []int, p core.Policy) ([]float64, error) {
	return exact(s, initial, p, s.cdfOf)
}

// cdfOf computes Π_k E[1{F_k ≤ x}·S_{Y_k}(F_k)] at every lattice point x
// over the laws in sc.srv.
func (s *Solver) cdfOf(sc *scratch) []float64 {
	cdf := make([]float64, s.t.n)
	for i := range cdf {
		cdf[i] = 1
	}
	for k, y := range s.t.model.Failure {
		_, never := y.(dist.Never)
		run := 0.0
		for i, m := range sc.srv[k].fin.M {
			if m != 0 {
				if never {
					run += m
				} else {
					run += m * y.Survival(float64(i)*s.t.dx)
				}
			}
			cdf[i] *= run
		}
	}
	return cdf
}

// All evaluates the three metrics (and the tail diagnostics) in one pass
// over the finish-time laws; Mean is NaN when the model is not reliable.
func (s *Solver) All(m1, m2, l12, l21 int, tm float64) (Metrics, error) {
	return s.AllRepl(m1, m2, l12, l21, tm, s.DefaultFactors())
}

// AllRepl is All under explicit per-server replication factors.
func (s *Solver) AllRepl(m1, m2, l12, l21 int, tm float64, fac [2]int) (Metrics, error) {
	sc := s.t.pool.Get().(*scratch)
	defer s.t.pool.Put(sc)
	if err := s.finishPairRepl(sc, m1, m2, l12, l21, fac); err != nil {
		return Metrics{}, err
	}
	return s.metricsOf(sc, tm, s.TailCorrect), nil
}

// metricsOf reads the three metrics off the laws in sc.srv.
func (s *Solver) metricsOf(sc *scratch, tm float64, tailCorrect bool) Metrics {
	mean := math.NaN()
	if s.t.model.Reliable() {
		mean = s.meanOf(sc, tailCorrect)
	}
	return Metrics{Mean: mean, QoS: s.qosOf(sc, tm), Reliability: s.reliabilityOf(sc), TailMass: sc.tailMass()}
}

// Bounds brackets the true metrics of a policy with several groups
// converging on one server: Optimistic assumes every batch arrives at
// the earliest of its groups' transfer times, Pessimistic at the latest.
// The true mean lies in [Optimistic.Mean, Pessimistic.Mean]; QoS and
// Reliability lie in [Pessimistic.*, Optimistic.*]. Means carry no
// tail-excess estimate: both sides attribute the tail at the horizon.
type Bounds struct {
	Optimistic  Metrics
	Pessimistic Metrics
	// Exact reports that no server receives more than one group, so the
	// two sides coincide and equal the exact canonical-scenario value.
	Exact bool
}

// Bounds computes the batch-arrival bounds for the policy p applied to
// the allocation initial. deadline ≤ 0 skips the QoS (reported as NaN);
// Mean is NaN when the model is not reliable.
func (s *Solver) Bounds(initial []int, p core.Policy, deadline float64) (b Bounds, err error) {
	sc := s.t.pool.Get().(*scratch)
	defer s.t.pool.Put(sc)
	for late, side := range []*Metrics{&b.Optimistic, &b.Pessimistic} {
		if err := s.finishFleet(sc, initial, p, late == 1); err != nil {
			return Bounds{}, err
		}
		*side = s.metricsOf(sc, deadline, false)
		if deadline <= 0 {
			side.QoS = math.NaN()
		}
		if b.Exact = p.Converging() < 0; b.Exact {
			b.Pessimistic = b.Optimistic
			break
		}
	}
	return b, nil
}
