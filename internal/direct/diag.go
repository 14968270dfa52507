package direct

import (
	"math"
	"sync/atomic"

	"dtr/internal/gridfn"
)

// Diagnostics is a point-in-time numerical health snapshot of one
// solver: the grid geometry, the construction-phase convolution audit,
// and the worst-case per-fold statistics accumulated over every finish
// law the solver has built so far. All quantities are error magnitudes
// (mass that an exact computation would conserve, negative mass an
// exact computation would never produce, probability truncated at the
// lattice horizon), so a healthy solve reports values near zero.
//
// Collecting diagnostics is bit-neutral: the accumulators observe
// intermediate values the solver computes anyway, never feed back into
// results, and for a deterministic evaluation set (every Optimize2
// sweep) the counts and maxima are themselves deterministic at every
// worker count — max and count are order-independent reductions.
type Diagnostics struct {
	// GridN, Dx and Horizon are the lattice geometry.
	GridN   int     `json:"gridN"`
	Dx      float64 `json:"dx"`
	Horizon float64 `json:"horizon"`
	// BuildFolds and BuildMassResidualMax audit the construction-phase
	// prefix chain (the k-fold service-sum tables): folds run and the
	// worst per-fold probability-mass conservation residual.
	BuildFolds           int     `json:"buildFolds"`
	BuildMassResidualMax float64 `json:"buildMassResidualMax"`
	// BuildNegMassMax is the worst negative round-off mass any
	// construction fold produced.
	BuildNegMassMax float64 `json:"buildNegMassMax"`
	// Folds counts the solve-phase FFT convolutions (finish-law
	// assembly); MassResidualMax and NegMassMax are the worst per-fold
	// mass-conservation residual and clamped negative mass among them.
	// They describe the folds the answer ran: on a screened sweep (QoS,
	// reliability, a two-server mean), the confirmations of its
	// contenders (see Screen), not the weight tables the screen folded.
	Folds           uint64  `json:"folds"`
	MassResidualMax float64 `json:"massResidualMax"`
	NegMassMax      float64 `json:"negMassMax"`
	// TailMassMax is the worst combined finish-law tail mass (the
	// probability truncated at the horizon) over the finish laws built:
	// every evaluated policy's, or a screened sweep's confirmations'.
	TailMassMax float64 `json:"tailMassMax"`
	// Evaluations counts evaluated points, a screened point once (its
	// confirmation does not count again). A sweep served from the
	// tables' memory (Solver.Sweep) counts, with its folds and maxima, as
	// the points its answer rests on: the view reports what it would
	// have had it run the sweep itself.
	Evaluations uint64 `json:"evaluations"`
	// MaxFactor is the largest replication factor with prefix tables,
	// reported only when above 1 (the replication-enabled case) so
	// non-replicated diagnostic artifacts keep their pre-replication
	// bytes. The build-phase fold counters above already include the
	// min-of-k prefix chains.
	MaxFactor int `json:"maxFactor,omitempty"`
}

// maxFloat64 is a lock-free order-independent maximum of non-negative
// float64 values. The zero value reads as 0 (non-negative float64 bit
// patterns order like their uint64 bits, so CAS on the bits suffices).
type maxFloat64 struct{ bits atomic.Uint64 }

func (m *maxFloat64) update(x float64) {
	if x <= 0 || math.IsNaN(x) {
		return
	}
	b := math.Float64bits(x)
	for {
		old := m.bits.Load()
		if old >= b {
			return
		}
		if m.bits.CompareAndSwap(old, b) {
			return
		}
	}
}

func (m *maxFloat64) load() float64 { return math.Float64frombits(m.bits.Load()) }

// noteFold records one solve-phase convolution's audit values and
// forwards them to the process metrics.
func (s *Solver) noteFold(residual, negMass float64) {
	s.folds.Add(1)
	s.residualMax.update(residual)
	s.negMassMax.update(negMass)
	solverFolds.Inc()
	solverMassResidual.Observe(residual)
}

// noteEval counts one evaluated point.
func (s *Solver) noteEval() {
	evals.Inc()
	s.evalCount.Add(1)
}

// noteTail records one finish-pair's combined truncated tail mass.
func (s *Solver) noteTail(tail float64) {
	s.tailMax.update(tail)
	solverTailMass.Observe(tail)
}

// Diagnostics snapshots the solver's numerical health counters: the
// construction audit of the factor chains this view reads — merged with
// order-independent reductions, so it equals a one-shot build's — and
// the view's own solve-phase accumulators. The audit is of the declared
// chains, every fold up to the queue bound, so the folds nobody has read
// yet are made first: asking for diagnostics costs what an eager build
// cost. Safe to call concurrently with solves; a snapshot taken
// mid-sweep can lag the in-flight fold.
func (s *Solver) Diagnostics() Diagnostics {
	mf := len(s.chains)
	if mf <= 1 {
		mf = 0 // omitted from JSON: non-replicated artifacts keep their bytes
	}
	var build gridfn.Meter
	sc := s.t.pool.Get().(*scratch)
	for _, c := range s.chains {
		for k, bound := range s.t.maxQueue {
			s.prefix(c, k, bound, sc.work)
			mergeMeter(&build, c.meter[k]) // complete, so no longer written
		}
	}
	s.t.pool.Put(sc)
	return Diagnostics{
		MaxFactor:            mf,
		GridN:                s.t.n,
		Dx:                   s.t.dx,
		Horizon:              s.horizon(),
		BuildFolds:           build.Folds,
		BuildMassResidualMax: build.MaxResidual,
		BuildNegMassMax:      build.MaxNegMass,
		Folds:                s.folds.Load(),
		MassResidualMax:      s.residualMax.load(),
		NegMassMax:           s.negMassMax.load(),
		TailMassMax:          s.tailMax.load(),
		Evaluations:          s.evalCount.Load(),
	}
}

// ProbeResult is one coarse-vs-fine grid-error probe: the three metrics
// of a policy evaluated on the solver's lattice and on a half-resolution
// shadow lattice, and the absolute differences. For a discretization
// whose error shrinks at least linearly in the step, the half-resolution
// difference upper-bounds the fine lattice's true deviation from the
// continuum (Richardson's argument: |f_N − f_{N/2}| ≈ (2^p − 1)·e_N ≥
// e_N for order p ≥ 1), so the Err fields are conservative error
// estimates for the Fine metrics. Err fields are NaN exactly when the
// underlying metric is (mean time with failure-prone servers).
type ProbeResult struct {
	// CoarseN is the shadow lattice's point count (half resolution at
	// twice the step, covering the same horizon).
	CoarseN int
	// Fine and Coarse are the policy's metrics at the two resolutions.
	Fine, Coarse Metrics
	// MeanErr, QoSErr and ReliabilityErr are |Fine − Coarse| per metric.
	MeanErr, QoSErr, ReliabilityErr float64
}

// ProbeGridError evaluates the metrics of the point pt on the solver
// lattice and on a half-resolution shadow of the tables and returns the
// differences as grid-error estimates; a NaN deadline is an error. The
// shadow costs a second prefix-table construction, paid by the first
// probe of any view of the tables. The probe never feeds back into solver
// state or results — solves are bit-identical whether or not probes run.
func (s *Solver) ProbeGridError(pt Point, tm float64) (*ProbeResult, error) {
	if math.IsNaN(tm) {
		return nil, checkDeadline(tm)
	}
	shadow, err := s.t.probeShadow()
	if err != nil {
		return nil, err
	}
	coarseSolver, _ := shadow.View(0, nil)
	fine, err := s.metrics(pt, tm)
	if err != nil {
		return nil, err
	}
	coarse, err := coarseSolver.metrics(pt, tm)
	if err != nil {
		return nil, err
	}
	pr := &ProbeResult{
		CoarseN:        shadow.n,
		Fine:           fine,
		Coarse:         coarse,
		MeanErr:        math.Abs(fine.Mean - coarse.Mean),
		QoSErr:         math.Abs(fine.QoS - coarse.QoS),
		ReliabilityErr: math.Abs(fine.Reliability - coarse.Reliability),
	}
	probeRuns.Inc()
	for _, e := range []float64{pr.MeanErr, pr.QoSErr, pr.ReliabilityErr} {
		if !math.IsNaN(e) {
			probeError.Observe(e)
		}
	}
	return pr, nil
}

// metrics reads all three metrics of the point pt, with Eval's tail
// correction; Mean is NaN when the model is not reliable.
func (s *Solver) metrics(pt Point, tm float64) (Metrics, error) {
	sc, err := s.exact(pt, true)
	if err != nil {
		return Metrics{}, err
	}
	defer s.t.pool.Put(sc)
	return s.metricsOf(sc, tm, true), nil
}
