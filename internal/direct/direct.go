// Package direct is the fast exact solver for the paper's canonical
// evaluation scenario: a two-server DCS that executes one DTR policy at
// t = 0 (queues r_i = m_i − L_ij, at most one task group in flight per
// direction, null age matrix) and then evolves without further control
// actions.
//
// In that scenario the servers interact only through the two groups
// launched at t = 0, so each server's finish time
//
//	F_k = max(S_{r_k}, Z_k) + S'_{g_k}
//
// (initial backlog sum, race with the incoming group's arrival, then the
// batch) is independent of the other server's, and the three metrics
// reduce to functionals of the two finish-time distributions:
//
//	T̄   = E[max(F_1, F_2)]
//	R_TM = P(F_1 ≤ TM)·P(F_2 ≤ TM)
//	R_∞  = E[S_{Y_1}(F_1)]·E[S_{Y_2}(F_2)]
//
// The finish-time laws are built by k-fold lattice convolutions
// (internal/gridfn), which makes full policy sweeps at the paper's scale
// (m1 = 100, m2 = 50) feasible — this is the engine behind Figs. 1–3 and
// Tables I–II. The general recursion of internal/core computes the same
// quantities for arbitrary configurations and is validated against this
// solver in the tests.
package direct

import (
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

// NewSolver precomputes the service-sum laws for a two-server model and
// returns the first view of them.
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

// DefaultFactors returns the per-server factors the factor-less metric
// methods use (the model's Repl entries, 1 when unset).
func (s *Solver) DefaultFactors() [2]int { return s.t.defFac }

// checkFactors validates a per-server factor pair against the tables.
func (s *Solver) checkFactors(fac [2]int) error {
	for k, f := range fac {
		if f < 1 || f > len(s.chains) {
			return fmt.Errorf("direct: replication factor %d at server %d outside [1, %d] (raise Config.MaxFactor)", f, k, len(s.chains))
		}
	}
	return nil
}

// Dx returns the lattice step.
func (s *Solver) Dx() float64 { return s.t.dx }

// Horizon returns the last lattice time point.
func (s *Solver) Horizon() float64 { return float64(s.t.n-1) * s.t.dx }

// scratch is what one evaluation works in: the fold buffers and the two
// finish laws. Every entry is overwritten before it is read, so results
// do not depend on which scratch the pool handed out.
type scratch struct {
	work *gridfn.Work
	f    [2]gridfn.Lattice
	// leg[k] is what finishLaw last built server k's finish law from,
	// kept for the tail-excess estimate; z is nil without a batch.
	leg [2]struct {
		own, g, fac int
		z           dist.Dist
	}
}

// Finish returns the finish-time law of server k with `own` initial tasks
// and an incoming batch of `g` tasks from server src (g = 0 for none):
// F = max(S_own, Z) + S'_g. A server with no work finishes at time 0.
// The server's default replication factor applies.
func (s *Solver) Finish(k, own, g, src int) (*gridfn.Lattice, error) {
	return s.FinishRepl(k, own, g, src, s.t.defFac[k])
}

// FinishRepl is Finish with an explicit replication factor: every task's
// service draw is the min-of-fac order statistic of the base law
// (cancel-on-first-complete replication).
func (s *Solver) FinishRepl(k, own, g, src, fac int) (*gridfn.Lattice, error) {
	sc := s.t.pool.Get().(*scratch)
	defer s.t.pool.Put(sc)
	f, err := s.finishLaw(sc, k, own, g, src, fac)
	if err != nil {
		return nil, err
	}
	return f.Clone(), nil
}

// finishLaw builds FinishRepl's law in sc.f[k] — or, with no incoming
// batch, returns the prefix table's own entry — for the caller to read
// before it releases sc. The batch is folded in by the same kernel that
// built the prefix tables (gridfn's Fold), against the cached spectrum.
func (s *Solver) finishLaw(sc *scratch, k, own, g, src, fac int) (*gridfn.Lattice, error) {
	if own < 0 || g < 0 {
		return nil, fmt.Errorf("direct: negative task counts own=%d g=%d", own, g)
	}
	if fac < 1 || fac > len(s.chains) {
		return nil, fmt.Errorf("direct: replication factor %d outside [1, %d] (raise Config.MaxFactor)", fac, len(s.chains))
	}
	c := s.chains[fac-1]
	if bound := s.t.maxQueue[k]; own > bound || g > bound {
		return nil, fmt.Errorf("direct: queue %d/%d exceeds MaxQueue=%d at server %d",
			own, g, bound, k)
	}
	leg := &sc.leg[k]
	leg.own, leg.g, leg.fac, leg.z = own, g, fac, nil
	pre := s.prefix(c, k, own, sc.work)
	if g == 0 {
		return pre, nil
	}
	z := s.transferOf(g, src, k)
	leg.z = z.law
	f := &sc.f[k]
	pre.MaxIndepInto(f, z.lat) // the race max(S_own, Z)
	s.noteFold(s.freqOf(k, fac, g, sc.work).Fold(f, f, sc.work))
	return f, nil
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

// scenario validates and splits a canonical policy application.
func (s *Solver) scenario(m1, m2, l12, l21 int) (r1, r2 int, err error) {
	if m1 < 0 || m2 < 0 {
		return 0, 0, fmt.Errorf("direct: negative workload (%d, %d)", m1, m2)
	}
	if l12 < 0 || l21 < 0 || l12 > m1 || l21 > m2 {
		return 0, 0, fmt.Errorf("direct: policy (L12=%d, L21=%d) infeasible for workload (%d, %d)", l12, l21, m1, m2)
	}
	return m1 - l12, m2 - l21, nil
}

// finishPairRepl builds both servers' finish-time laws under explicit
// per-server replication factors; the laws are read-only and valid until
// sc is released.
func (s *Solver) finishPairRepl(sc *scratch, m1, m2, l12, l21 int, fac [2]int) (f1, f2 *gridfn.Lattice, err error) {
	if err := s.checkFactors(fac); err != nil {
		return nil, nil, err
	}
	r1, r2, err := s.scenario(m1, m2, l12, l21)
	if err != nil {
		return nil, nil, err
	}
	evals.Inc()
	f1, err = s.finishLaw(sc, 0, r1, l21, 1, fac[0])
	if err != nil {
		return nil, nil, err
	}
	f2, err = s.finishLaw(sc, 1, r2, l12, 0, fac[1])
	if err != nil {
		return nil, nil, err
	}
	s.noteFinish(f1.Tail + f2.Tail)
	return f1, f2, nil
}

// MeanTime returns T̄ = E[max(F1, F2)] for the policy (L12, L21) applied
// to the initial allocation (m1, m2). The model must be reliable.
func (s *Solver) MeanTime(m1, m2, l12, l21 int) (float64, error) {
	return s.MeanTimeRepl(m1, m2, l12, l21, s.t.defFac)
}

// MeanTimeRepl is MeanTime under explicit per-server replication factors.
func (s *Solver) MeanTimeRepl(m1, m2, l12, l21 int, fac [2]int) (float64, error) {
	if !s.t.model.Reliable() {
		return 0, fmt.Errorf("direct: mean execution time requires reliable servers")
	}
	sc := s.t.pool.Get().(*scratch)
	defer s.t.pool.Put(sc)
	f1, f2, err := s.finishPairRepl(sc, m1, m2, l12, l21, fac)
	if err != nil {
		return 0, err
	}
	return s.meanOf(sc, f1, f2), nil
}

// meanOf returns E[max(F1, F2)] for the pair finishPairRepl just built
// in sc, with the tail-excess estimate when TailCorrect is set.
func (s *Solver) meanOf(sc *scratch, f1, f2 *gridfn.Lattice) float64 {
	mean := f1.MaxIndepInto(nil, f2)
	if s.TailCorrect {
		mean += s.tailExcess(sc, 0) + s.tailExcess(sc, 1)
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
	leg := sc.leg[k]
	h := s.Horizon()
	w := dist.NewMinOfK(s.t.model.Service[k], leg.fac)
	nTasks := leg.own + leg.g
	total := float64(nTasks) * w.Mean()
	var excess float64
	if nTasks > 0 {
		thr := h - (total - w.Mean())
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
	return s.QoSRepl(m1, m2, l12, l21, tm, s.t.defFac)
}

// QoSRepl is QoS under explicit per-server replication factors.
func (s *Solver) QoSRepl(m1, m2, l12, l21 int, tm float64, fac [2]int) (float64, error) {
	if tm < 0 || math.IsNaN(tm) {
		return 0, fmt.Errorf("direct: invalid deadline %g", tm)
	}
	sc := s.t.pool.Get().(*scratch)
	defer s.t.pool.Put(sc)
	f1, f2, err := s.finishPairRepl(sc, m1, m2, l12, l21, fac)
	if err != nil {
		return 0, err
	}
	return s.qosOf(f1, 0, tm) * s.qosOf(f2, 1, tm), nil
}

// qosOf computes E[1{F ≤ tm}·S_Y(F)] for server k's finish law.
func (s *Solver) qosOf(f *gridfn.Lattice, k int, tm float64) float64 {
	y := s.t.model.Failure[k]
	if _, never := y.(dist.Never); never {
		return f.CDFAt(tm)
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
	return sum
}

// Reliability returns R_∞ = Π_k E[S_{Y_k}(F_k)]: each server must outlive
// its own finish time; the failure laws are independent of everything
// else, so the factors multiply.
func (s *Solver) Reliability(m1, m2, l12, l21 int) (float64, error) {
	return s.ReliabilityRepl(m1, m2, l12, l21, s.t.defFac)
}

// ReliabilityRepl is Reliability under explicit per-server replication
// factors.
func (s *Solver) ReliabilityRepl(m1, m2, l12, l21 int, fac [2]int) (float64, error) {
	sc := s.t.pool.Get().(*scratch)
	defer s.t.pool.Put(sc)
	f1, f2, err := s.finishPairRepl(sc, m1, m2, l12, l21, fac)
	if err != nil {
		return 0, err
	}
	return s.reliabilityOf(f1, 0) * s.reliabilityOf(f2, 1), nil
}

// reliabilityOf computes E[S_Y(F)] for server k's finish law.
func (s *Solver) reliabilityOf(f *gridfn.Lattice, k int) float64 {
	y := s.t.model.Failure[k]
	if _, never := y.(dist.Never); never {
		return 1
	}
	return f.ExpectSurvival(y.Survival, 0)
}

// CompletionCDF returns the full distribution function of the workload
// execution time T under the policy, sampled on the solver lattice:
// cdf[i] = P(T ≤ i·Dx()). With failure-prone servers T = ∞ with positive
// probability, so the curve saturates at the service reliability rather
// than 1. The QoS at any deadline is a point on this curve and the mean
// (reliable case) is its complementary integral — the curve is what a
// deadline-shopping caller actually wants.
func (s *Solver) CompletionCDF(m1, m2, l12, l21 int) ([]float64, error) {
	return s.CompletionCDFRepl(m1, m2, l12, l21, s.t.defFac)
}

// CompletionCDFRepl is CompletionCDF under explicit per-server
// replication factors.
func (s *Solver) CompletionCDFRepl(m1, m2, l12, l21 int, fac [2]int) ([]float64, error) {
	sc := s.t.pool.Get().(*scratch)
	defer s.t.pool.Put(sc)
	f1, f2, err := s.finishPairRepl(sc, m1, m2, l12, l21, fac)
	if err != nil {
		return nil, err
	}
	cdf := make([]float64, s.t.n)
	for i := range cdf {
		cdf[i] = 1
	}
	for k, f := range []*gridfn.Lattice{f1, f2} {
		y := s.t.model.Failure[k]
		_, never := y.(dist.Never)
		run := 0.0
		for i, m := range f.M {
			if m != 0 {
				if never {
					run += m
				} else {
					run += m * y.Survival(float64(i)*f.Dx)
				}
			}
			cdf[i] *= run
		}
	}
	return cdf, nil
}

// All evaluates the three metrics (and the tail diagnostics) in one pass
// over the finish-time laws; Mean is NaN when the model is not reliable.
func (s *Solver) All(m1, m2, l12, l21 int, tm float64) (Metrics, error) {
	return s.AllRepl(m1, m2, l12, l21, tm, s.t.defFac)
}

// AllRepl is All under explicit per-server replication factors.
func (s *Solver) AllRepl(m1, m2, l12, l21 int, tm float64, fac [2]int) (Metrics, error) {
	sc := s.t.pool.Get().(*scratch)
	defer s.t.pool.Put(sc)
	f1, f2, err := s.finishPairRepl(sc, m1, m2, l12, l21, fac)
	if err != nil {
		return Metrics{}, err
	}
	var out Metrics
	out.TailMass = f1.Tail + f2.Tail
	if s.t.model.Reliable() {
		out.Mean = s.meanOf(sc, f1, f2)
	} else {
		out.Mean = math.NaN()
	}
	out.QoS = s.qosOf(f1, 0, tm) * s.qosOf(f2, 1, tm)
	out.Reliability = s.reliabilityOf(f1, 0) * s.reliabilityOf(f2, 1)
	return out, nil
}
