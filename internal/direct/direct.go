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
// A policy is evaluated through one door: a Point (allocation, policy,
// per-server replication factors) and a Metric go to Solver.Eval, the
// curve to Solver.CDF and the batch-arrival bracket to Solver.Bounds, and
// each reads the laws one finish builder makes. Eval and CDF are exact
// whenever no server receives more than one group — every two-server
// policy among them. With several groups converging on one server the
// exact law would integrate over every arrival order; Bounds brackets it
// instead by the paper's §IV proposal, "all reallocated tasks arrive as a
// single batch": delaying every arrival at a work-conserving server can
// only postpone its finish and advancing them can only hasten it, so a
// batch at min(Z_1..Z_k) bounds the finish time from below pathwise and
// one at max(Z_1..Z_k) from above.
//
// A sweep need not build the laws at every point. QoS and reliability
// are linear in each server's finish law: a Screen scores a point within
// ScreenEps of Eval with one walk per server against a weight table made
// once per received batch, and the sweep confirms with Eval only the
// points whose scores lie within 2·ScreenEps of the best. For the mean
// on two servers a Screen bounds from below — each received batch
// replaced by its mean (Jensen), less what the horizon's cap can remove
// — in one walk over the two races (Refine), and scores an O(1)
// pre-bound of that walk from per-(server, count) scalars; the sweep
// walks only the points whose pre-bounds can still come first, and
// confirms from the least bound up only the points whose bounds do not
// exceed the best exact value by more than ScreenEps relative. Eval's
// values stay the answer of record, so the screened sweep returns the
// policy and value bits of one that evaluates every point.
//
// The finish-time laws are built by k-fold lattice convolutions
// (internal/gridfn), which makes full policy sweeps at the paper's scale
// (m1 = 100, m2 = 50) feasible — this is the engine behind Figs. 1–3 and
// Tables I–II. The transfer laws' lattices and their pre-bound scalars
// read each law's CDF a batch at a time (gridfn.CDFs), so a Pareto law's
// points go through dist's four-lane kernel where the host has it, with
// the per-point bits. A sweep's points are two-server Pairs, and a warm point
// allocates nothing; MeanTime, QoS, Reliability and CompletionCDF are
// their (m1, m2, l12, l21) spellings. The general recursion of
// internal/core computes the same quantities for arbitrary configurations
// and is validated against this solver in the tests.
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

// Solver evaluates canonical-scenario metrics on a fixed time lattice,
// one Point at a time: Eval reads a metric, CDF the completion curve and
// Bounds the batch-arrival bracket, all off the laws finishFleet builds
// through finishLaw. It is one request's view of a model's Tables: the
// replication factors it may evaluate, the trace span and the
// numerical-health accumulators are its own; the prefix chains, spectra,
// transfer lattices and scratch are the tables'. Its results and its
// Diagnostics are therefore a pure function of what was asked of this
// view, whatever other views of the same tables exist.
//
// A Solver is safe for concurrent use: the tables are immutable once
// published, their lazy caches fill each value once (see Tables), and
// every evaluation works in pooled scratch it fully overwrites, so
// concurrent sweeps over the policy lattice return bit-identical values
// to a serial scan.
//
// Eval's mean carries the single-big-jump tail-excess estimate of the
// mass beyond the lattice horizon (see tailExcess); Bounds attributes
// that mass at the horizon instead.
type Solver struct {
	t *Tables
	// chains are the tables' factor chains 1..len(chains) this view
	// reads; the tables may hold more.
	chains []*chain

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

// DefaultFactors returns the factors a two-server Pair with nil factors
// evaluates under: the Repl entries (1 when unset) of the model's first
// and last server.
func (s *Solver) DefaultFactors() [2]int {
	m := s.t.model
	return [2]int{m.ReplFactor(0), m.ReplFactor(m.N() - 1)}
}

// Dx returns the lattice step.
func (s *Solver) Dx() float64 { return s.t.dx }

// horizon returns the last lattice time point.
func (s *Solver) horizon() float64 { return float64(s.t.n-1) * s.t.dx }

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

// finishLaw is the one finish-law builder: server k's law with `own`
// initial tasks under replication factor fac (every task's service draw
// is the min-of-fac order statistic of the base law) and a batch of g
// tasks arriving at z.lat — a group's transfer time, or the fold of
// several. It builds the law in sc.srv[k].f — or, with no batch, takes
// the prefix table's own entry — and leaves it in sc.srv[k].fin for the
// caller to read before it releases sc; legs has checked the arguments.
// The race and the batch are one fold (gridfn's FoldMax), by the same
// kernel that built the prefix tables, against the cached spectrum.
func (s *Solver) finishLaw(sc *scratch, k, own, g, fac int, z transfer) {
	l := &sc.srv[k]
	l.own, l.g, l.fac, l.z = own, g, fac, z.law
	l.fin = s.prefix(s.chains[fac-1], k, own, sc.work)
	if g > 0 {
		// The race max(S_own, Z), then the batch, in one fold.
		s.noteFold(s.freqOf(k, fac, g, sc.work).FoldMax(&l.f, l.fin, z.lat, sc.work))
		l.fin = &l.f
	}
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

// Point is one evaluation request: the policy Policy applied at t = 0 to
// the allocation Initial, every task's service drawn as the min-of-Fac[k]
// order statistic at server k. Fac nil means the model's Repl factors.
type Point struct {
	Initial []int
	Policy  core.Policy
	Fac     []int
}

// Pair is the two-server point (L12, L21) on the workload (m1, m2), the
// lattice the paper's optimization problems (3) and (4) search, under the
// per-server factors fac (nil: the model's). Inlined at the call that
// evaluates it, its slices stay on the stack: a warm point allocates
// nothing.
func Pair(m1, m2, l12, l21 int, fac []int) Point {
	return Point{Initial: []int{m1, m2}, Policy: core.Policy{{0, l12}, {l21, 0}}, Fac: fac}
}

// Metric selects one of the paper's three metrics.
type Metric int

const (
	// MetricMean is T̄ = E[max_k F_k]. The model must be reliable. On
	// two servers it has a Screen whose scores are lower bounds.
	MetricMean Metric = iota
	// MetricQoS is R_TM = Π_k E[1{F_k ≤ TM}·S_{Y_k}(F_k)]: each server
	// must both finish by the deadline and outlive its own finish time.
	// With reliable servers it reduces to Π_k P(F_k ≤ TM). Linear in
	// each finish law, it has a Screen: scores within ScreenEps of Eval,
	// which confirms the contenders.
	MetricQoS
	// MetricReliability is R_∞ = Π_k E[S_{Y_k}(F_k)]: each server must
	// outlive its own finish time; the failure laws are independent of
	// everything else, so the factors multiply. Linear in each finish
	// law, it has a Screen as MetricQoS does.
	MetricReliability
)

var errUnreliable = errors.New("direct: mean execution time requires reliable servers")

// Eval returns the metric m of the point pt; tm is the deadline
// MetricQoS reads and the other two ignore. It is exact, so it refuses a
// policy that converges several groups on one server: Bounds brackets
// those.
func (s *Solver) Eval(pt Point, m Metric, tm float64) (float64, error) {
	return s.eval(pt, m, tm, true)
}

// eval is Eval; count says whether the point counts as an evaluation
// (a screen's confirmation does not: the screen counted it).
func (s *Solver) eval(pt Point, m Metric, tm float64, count bool) (float64, error) {
	switch m {
	case MetricMean:
		if !s.t.model.Reliable() {
			return 0, errUnreliable
		}
	case MetricQoS:
		if err := checkDeadline(tm); err != nil {
			return 0, err
		}
	case MetricReliability:
	default:
		return 0, fmt.Errorf("direct: unknown metric %d", m)
	}
	sc, err := s.exact(pt, count)
	if err != nil {
		return 0, err
	}
	defer s.t.pool.Put(sc)
	switch m {
	case MetricMean:
		return s.meanOf(sc, true), nil
	case MetricQoS:
		return s.qosOf(sc, tm), nil
	}
	return s.reliabilityOf(sc), nil
}

// CDF returns the full distribution function of the workload execution
// time T at the point pt, sampled on the solver lattice:
// cdf[i] = P(T ≤ i·Dx()). With failure-prone servers T = ∞ with positive
// probability, so the curve saturates at the service reliability rather
// than 1. The QoS at any deadline is a point on this curve and the mean
// (reliable case) is its complementary integral — the curve is what a
// deadline-shopping caller actually wants. Like Eval it is exact only.
func (s *Solver) CDF(pt Point) ([]float64, error) {
	sc, err := s.exact(pt, true)
	if err != nil {
		return nil, err
	}
	defer s.t.pool.Put(sc)
	return s.cdfOf(sc), nil
}

// MeanTime is Eval's MetricMean at Pair(m1, m2, l12, l21, nil).
func (s *Solver) MeanTime(m1, m2, l12, l21 int) (float64, error) {
	return s.Eval(Pair(m1, m2, l12, l21, nil), MetricMean, 0)
}

// QoS is Eval's MetricQoS at Pair(m1, m2, l12, l21, nil).
func (s *Solver) QoS(m1, m2, l12, l21 int, tm float64) (float64, error) {
	return s.Eval(Pair(m1, m2, l12, l21, nil), MetricQoS, tm)
}

// Reliability is Eval's MetricReliability at Pair(m1, m2, l12, l21, nil).
func (s *Solver) Reliability(m1, m2, l12, l21 int) (float64, error) {
	return s.Eval(Pair(m1, m2, l12, l21, nil), MetricReliability, 0)
}

// CompletionCDF is CDF at Pair(m1, m2, l12, l21, nil).
func (s *Solver) CompletionCDF(m1, m2, l12, l21 int) ([]float64, error) {
	return s.CDF(Pair(m1, m2, l12, l21, nil))
}

// checkDeadline rejects a deadline the QoS cannot be read at. Bounds and
// ProbeGridError read any deadline but NaN, the one value no lattice
// point compares with.
func checkDeadline(tm float64) error {
	if tm < 0 || math.IsNaN(tm) {
		return fmt.Errorf("direct: invalid deadline %g", tm)
	}
	return nil
}

// exact builds the finish laws of pt in pooled scratch, which the caller
// returns to the pool after reading them; no more than one group may
// converge on a server. count is finishFleet's.
func (s *Solver) exact(pt Point, count bool) (*scratch, error) {
	if err := checkExact(pt); err != nil {
		return nil, err
	}
	sc := s.t.pool.Get().(*scratch)
	if err := s.finishFleet(sc, pt, earliest, count); err != nil {
		s.t.pool.Put(sc)
		return nil, err
	}
	return sc, nil
}

// checkExact refuses a point whose metrics the exact laws cannot give.
func checkExact(pt Point) error {
	if k := pt.Policy.Converging(); k >= 0 {
		return fmt.Errorf("direct: more than one task group converges on server %d, so its finish law depends on the arrival order; Bounds brackets the metrics", k)
	}
	return nil
}

// finishFleet builds every server's finish-time law in sc.srv for the
// point pt, each batch arriving as arrive says (see legs); count says
// whether the point counts as an evaluation.
func (s *Solver) finishFleet(sc *scratch, pt Point, arrive arrival, count bool) error {
	err := s.legs(pt, arrive, func(k, own, g, fac int, z transfer) error {
		s.finishLaw(sc, k, own, g, fac, z)
		return nil
	})
	if err != nil {
		return err
	}
	if count {
		s.noteEval()
	}
	s.noteTail(sc.tailMass())
	return nil
}

// arrival is when legs has a server's incoming groups arrive, as one
// batch: with the earliest of their transfers, with the latest, or
// untabulated — z is left empty, and no transfer lattice is made. With
// at most one group per server the first two coincide and the laws built
// from the legs are exact.
type arrival int

const (
	earliest arrival = iota
	latest
	untabulated
)

// legs checks the point pt and hands each server's share of it to leg:
// its own remaining tasks, the batch it receives, that batch's arrival
// as arrive says and its replication factor.
func (s *Solver) legs(pt Point, arrive arrival, leg func(k, own, g, fac int, z transfer) error) error {
	initial, p, servers := pt.Initial, pt.Policy, len(s.t.maxQueue)
	if len(initial) != servers {
		return fmt.Errorf("direct: allocation for %d servers, model has %d", len(initial), servers)
	}
	if pt.Fac != nil && len(pt.Fac) != servers {
		return fmt.Errorf("direct: %d replication factors, model has %d servers", len(pt.Fac), servers)
	}
	if err := p.Validate(initial); err != nil {
		return err
	}
	for k := range servers {
		own, batch := initial[k], 0
		var z transfer
		for i, row := range p {
			own -= p[k][i]
			g := row[k]
			if g == 0 {
				continue
			}
			if arrive != untabulated {
				zi := s.transferOf(g, i, k)
				switch {
				case batch == 0:
					z = zi
				case arrive == latest:
					z = transfer{lat: z.lat.MaxIndep(zi.lat)}
				default:
					z = transfer{lat: z.lat.MinIndep(zi.lat)}
				}
			}
			batch += g
		}
		fac := s.t.model.ReplFactor(k)
		if pt.Fac != nil {
			fac = pt.Fac[k]
		}
		if fac < 1 || fac > len(s.chains) {
			return fmt.Errorf("direct: replication factor %d at server %d outside [1, %d] (raise Config.MaxFactor)", fac, k, len(s.chains))
		}
		if bound := s.t.maxQueue[k]; own < 0 || batch < 0 || own > bound || batch > bound {
			return fmt.Errorf("direct: queue %d/%d outside [0, MaxQueue=%d] at server %d", own, batch, bound, k)
		}
		if err := leg(k, own, batch, fac, z); err != nil {
			return err
		}
	}
	return nil
}

func (sc *scratch) tailMass() float64 {
	var tail float64
	for k := range sc.srv {
		tail += sc.srv[k].fin.Tail
	}
	return tail
}

// meanOf returns E[max_k F_k] for the laws in sc.srv — the pairwise
// maximum folded over the servers — with the tail-excess estimate when
// tailCorrect is set.
func (s *Solver) meanOf(sc *scratch, tailCorrect bool) float64 {
	acc, last := sc.srv[0].fin, len(sc.srv)-1
	for k := 1; k < last; k++ {
		acc.MaxIndepInto(&sc.acc, sc.srv[k].fin)
		acc = &sc.acc
	}
	var mean float64
	if last == 0 {
		mean = acc.Mean()
	} else {
		mean = acc.MaxIndepMean(sc.srv[last].fin)
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
	h := s.horizon()
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

// qosOf computes Π_k E[1{F_k ≤ tm}·S_{Y_k}(F_k)] over the laws in sc.srv.
func (s *Solver) qosOf(sc *scratch, tm float64) float64 {
	q := 1.0
	for k := range sc.srv {
		f := sc.srv[k].fin
		if sv := s.t.survival(k); sv != nil {
			q *= f.Expect(sv[:s.t.through(tm)])
		} else {
			q *= f.CDFAt(tm)
		}
	}
	return q
}

// reliabilityOf computes Π_k E[S_{Y_k}(F_k)] over the laws in sc.srv.
func (s *Solver) reliabilityOf(sc *scratch) float64 {
	r := 1.0
	for k := range sc.srv {
		if sv := s.t.survival(k); sv != nil {
			r *= sc.srv[k].fin.Expect(sv)
		}
	}
	return r
}

// cdfOf computes Π_k E[1{F_k ≤ x}·S_{Y_k}(F_k)] at every lattice point x
// over the laws in sc.srv.
func (s *Solver) cdfOf(sc *scratch) []float64 {
	cdf := make([]float64, s.t.n)
	for i := range cdf {
		cdf[i] = 1
	}
	for k := range sc.srv {
		sv := s.t.survival(k)
		run := 0.0
		for i, m := range sc.srv[k].fin.M {
			if m != 0 {
				if sv == nil {
					run += m
				} else {
					run += m * sv[i]
				}
			}
			cdf[i] *= run
		}
	}
	return cdf
}

// metricsOf reads the three metrics off the laws in sc.srv; Mean is NaN
// when the model is not reliable.
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

// Bounds computes the batch-arrival bounds at the point pt. deadline ≤ 0
// skips the QoS (reported as NaN) and NaN is an error; Mean is NaN when
// the model is not reliable.
func (s *Solver) Bounds(pt Point, deadline float64) (b Bounds, err error) {
	if math.IsNaN(deadline) {
		return Bounds{}, checkDeadline(deadline)
	}
	sc := s.t.pool.Get().(*scratch)
	defer s.t.pool.Put(sc)
	for late, side := range []*Metrics{&b.Optimistic, &b.Pessimistic} {
		if err := s.finishFleet(sc, pt, arrival(late), true); err != nil {
			return Bounds{}, err
		}
		*side = s.metricsOf(sc, deadline, false)
		if deadline <= 0 {
			side.QoS = math.NaN()
		}
		if b.Exact = pt.Policy.Converging() < 0; b.Exact {
			b.Pessimistic = b.Optimistic
			break
		}
	}
	return b, nil
}
