package dist

// Replication-oriented law combinators: the random-slowdown (straggler)
// service model and the min-of-k order statistic of cancel-on-first-
// complete task replication. Both follow the task-replication literature
// (Wang, Joshi & Wornell's replication-for-fast-response model and the
// Peng–Soljanin diversity/parallelism trade-off): a task dispatched with
// replication factor k runs k i.i.d. copies of its service time — each
// copy drawing its own slowdown — and completes when the first copy does.

import (
	"fmt"
	"math"
	"math/rand/v2"

	"dtr/internal/quad"
)

// Slowdown is the random-slowdown straggler mixture: with probability p
// the drawn time is stretched by factor s ≥ 1, otherwise it is the base
// draw. Its CDF is (1−p)·F(x) + p·F(x/s).
type Slowdown struct {
	base Dist
	p    float64 // straggle probability
	s    float64 // stretch factor
}

// NewSlowdown returns the straggler mixture of base with straggle
// probability p ∈ [0, 1] and stretch factor s ≥ 1. The identity cases
// (p = 0 or s = 1) return base itself, so wrapping a law with a no-op
// slowdown leaves every downstream computation bit-identical.
func NewSlowdown(base Dist, p, s float64) Dist {
	if math.IsNaN(p) || p < 0 || p > 1 {
		panic(fmt.Sprintf("dist: slowdown probability %g outside [0, 1]", p))
	}
	if math.IsNaN(s) || s < 1 || math.IsInf(s, 0) {
		panic(fmt.Sprintf("dist: slowdown factor %g must be finite and at least 1", s))
	}
	if p == 0 || s == 1 {
		return base
	}
	return &Slowdown{base: base, p: p, s: s}
}

// Base returns the unslowed law.
func (d *Slowdown) Base() Dist { return d.base }

// Params returns the straggle probability and stretch factor.
func (d *Slowdown) Params() (p, s float64) { return d.p, d.s }

func (d *Slowdown) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	return (1-d.p)*d.base.PDF(x) + d.p/d.s*d.base.PDF(x/d.s)
}

func (d *Slowdown) CDF(x float64) float64 {
	if x <= 0 {
		return d.base.CDF(x)
	}
	return (1-d.p)*d.base.CDF(x) + d.p*d.base.CDF(x/d.s)
}

func (d *Slowdown) Survival(x float64) float64 {
	if x <= 0 {
		return d.base.Survival(x)
	}
	return (1-d.p)*d.base.Survival(x) + d.p*d.base.Survival(x/d.s)
}

// Quantile inverts the mixture CDF by bisection inside the exact bracket
// [Q(p), s·Q(p)] (the mixture is stochastically between the base and the
// fully-stretched law).
func (d *Slowdown) Quantile(p float64) float64 {
	if !checkProb(p) {
		return math.NaN()
	}
	if p == 0 {
		return 0
	}
	lo := d.base.Quantile(p)
	if math.IsInf(lo, 1) || lo == 0 {
		return lo
	}
	hi := lo * d.s
	for {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			return hi
		}
		if d.CDF(mid) >= p {
			hi = mid
		} else {
			lo = mid
		}
	}
}

func (d *Slowdown) Mean() float64 {
	return (1 - d.p + d.p*d.s) * d.base.Mean()
}

func (d *Slowdown) Var() float64 {
	bv := d.base.Var()
	if math.IsInf(bv, 1) {
		return math.Inf(1)
	}
	bm := d.base.Mean()
	m2 := (1 - d.p + d.p*d.s*d.s) * (bv + bm*bm)
	m := d.Mean()
	v := m2 - m*m
	if v < 0 {
		return 0
	}
	return v
}

// Sample draws the branch first, then the base variate, so the draw count
// (two uniforms) is the same on both branches and a replication stream
// stays aligned regardless of which branch fires.
func (d *Slowdown) Sample(r *rand.Rand) float64 {
	slow := r.Float64() < d.p
	w := d.base.Sample(r)
	if slow {
		w *= d.s
	}
	return w
}

func (d *Slowdown) Support() (lo, hi float64) {
	blo, bhi := d.base.Support()
	return blo, bhi * d.s
}

// Aged returns the generic residual-law view: conditioning on survival
// past a reweights the mixture, so the result is not itself a Slowdown.
func (d *Slowdown) Aged(a float64) Dist { return newAged(d, a) }

func (d *Slowdown) String() string {
	return fmt.Sprintf("Slowdown(%v, p=%g, s=%g)", d.base, d.p, d.s)
}

// meanExcess: ∫_x^∞ S'(t) dt = (1−p)·ME(x) + p·s·ME(x/s) by substitution.
func (d *Slowdown) meanExcess(x float64) float64 {
	if x < 0 {
		x = 0
	}
	return (1-d.p)*MeanExcess(d.base, x) + d.p*d.s*MeanExcess(d.base, x/d.s)
}

// MinOfK is the law of the minimum of k i.i.d. copies of a base law — the
// completion time of a task replicated to k servers-worth of copies under
// cancel-on-first-complete semantics. Its survival is S(x)^k.
type MinOfK struct {
	base Dist
	k    int
}

// NewMinOfK returns the min-of-k order statistic of base. k = 1 returns
// base itself — mandatory for the k = 1 bit-identity guarantee, since
// even an identity wrapper would perturb CDF values by an ulp
// (1 − (1−F) ≠ F in floating point).
func NewMinOfK(base Dist, k int) Dist {
	if k < 1 {
		panic(fmt.Sprintf("dist: replication factor %d must be at least 1", k))
	}
	if k == 1 {
		return base
	}
	if m, ok := base.(*MinOfK); ok {
		// min of k copies of a min of j copies is a min of k·j copies.
		return &MinOfK{base: m.base, k: m.k * k}
	}
	return &MinOfK{base: base, k: k}
}

// Base returns the single-copy law.
func (d *MinOfK) Base() Dist { return d.base }

// K returns the replication factor.
func (d *MinOfK) K() int { return d.k }

func (d *MinOfK) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	s := d.base.Survival(x)
	return float64(d.k) * d.base.PDF(x) * math.Pow(s, float64(d.k-1))
}

func (d *MinOfK) CDF(x float64) float64 {
	return 1 - d.Survival(x)
}

func (d *MinOfK) Survival(x float64) float64 {
	return math.Pow(d.base.Survival(x), float64(d.k))
}

// Quantile: S(x)^k = 1−p  ⇔  F(x) = 1 − (1−p)^{1/k}.
func (d *MinOfK) Quantile(p float64) float64 {
	if !checkProb(p) {
		return math.NaN()
	}
	return d.base.Quantile(1 - math.Pow(1-p, 1/float64(d.k)))
}

func (d *MinOfK) Mean() float64 {
	return d.meanExcess(0)
}

func (d *MinOfK) Var() float64 {
	m := d.Mean()
	if math.IsInf(m, 1) {
		return math.Inf(1)
	}
	_, hi := d.base.Support()
	f := func(t float64) float64 { return t * d.Survival(t) }
	var m2 float64
	if math.IsInf(hi, 1) {
		m2 = 2 * quad.ToInf(f, 0, 1e-10)
	} else {
		m2 = 2 * quad.Simpson(f, 0, hi, 1e-10)
	}
	v := m2 - m*m
	if v < 0 {
		return 0
	}
	return v
}

// Sample draws by inverse transform: one uniform regardless of k. The
// simulator does not use this — it spawns k copy events and cancels the
// losers — but analytic consumers (virtual-time estimators) sample the
// effective law directly.
func (d *MinOfK) Sample(r *rand.Rand) float64 { return d.Quantile(r.Float64()) }

func (d *MinOfK) Support() (lo, hi float64) { return d.base.Support() }

// Aged commutes with the minimum: the copies started together and age
// together, so the residual of the min is the min of the residuals.
func (d *MinOfK) Aged(a float64) Dist {
	if a == 0 {
		return d
	}
	return NewMinOfK(d.base.Aged(a), d.k)
}

func (d *MinOfK) String() string {
	return fmt.Sprintf("MinOfK(%v, k=%d)", d.base, d.k)
}

// meanExcess: ∫_x^∞ S(t)^k dt, integrated numerically (the power makes
// the tail strictly lighter than the base law's, so the integrals
// converge at least as fast).
func (d *MinOfK) meanExcess(x float64) float64 {
	if x < 0 {
		x = 0
	}
	_, hi := d.base.Support()
	if x >= hi {
		return 0
	}
	if math.IsInf(hi, 1) {
		return quad.ToInf(d.Survival, x, 1e-10)
	}
	return quad.Simpson(d.Survival, x, hi, 1e-10)
}
