// Package dist provides the probability distributions of the random times
// that drive a distributed computing system (DCS) in the age-dependent
// task-reallocation model of Pezoa, Hayat, Wang and Dhakal (ICPP 2010):
// task service times, server failure times, failure-notice transfer times
// and task-group transfer times.
//
// Every distribution implements Dist, whose pivotal method is Aged: for a
// random time T with age a, Aged(a) is the law of the residual time
// T_a = T − a conditioned on {T > a}. Aged versions are what the paper's
// auxiliary continuous-time age matrix tracks; the memoryless property
// makes Aged a no-op exactly for the exponential family, which is why the
// Markovian model of the earlier work is the special case of this one.
//
// The concrete families are the ones the paper evaluates — Exponential,
// Pareto (finite- and infinite-variance), Shifted Exponential, Uniform and
// Shifted Gamma (the empirical fit of the testbed's transfer times) — plus
// Weibull, Gamma, Deterministic and Never, which round out the framework.
//
// Pareto also has a batch CDF, CDFs, which a lattice tabulation reads:
// on amd64 hosts with AVX2 and FMA3 it runs four points at a time in Go
// assembly that performs math.Pow's operations lane for lane, so its
// values are CDF's, bit for bit, and the scalar loop takes every point
// elsewhere.
package dist

import (
	"fmt"
	"math"
	"math/rand/v2"

	"dtr/internal/quad"
)

// Dist is a probability distribution of a non-negative random time.
//
// Implementations must be immutable: methods never modify the receiver, so
// a Dist may be shared freely across goroutines.
type Dist interface {
	// PDF returns the probability density at x (0 outside the support).
	// Distributions with atoms (Deterministic) return 0 and are handled
	// by callers through CDF.
	PDF(x float64) float64

	// CDF returns P(T ≤ x).
	CDF(x float64) float64

	// Survival returns P(T > x), computed directly for tail accuracy.
	Survival(x float64) float64

	// Quantile returns the smallest x with CDF(x) ≥ p, for p ∈ [0, 1].
	Quantile(p float64) float64

	// Mean returns E[T] (+Inf is allowed, e.g. Never).
	Mean() float64

	// Var returns Var(T) (+Inf for infinite-variance laws such as the
	// paper's "Pareto 2" model).
	Var() float64

	// Sample draws a variate using the given random source.
	Sample(r *rand.Rand) float64

	// Support returns the interval [lo, hi] outside which the density
	// vanishes; hi may be +Inf.
	Support() (lo, hi float64)

	// Aged returns the law of T − a conditioned on T > a. Aged(0) is the
	// distribution itself. Aging past the support (Survival(a) = 0)
	// panics: the event being conditioned on is impossible, and reaching
	// it indicates a solver bug rather than a data condition.
	Aged(a float64) Dist

	// String returns a compact parameterized description, e.g.
	// "Pareto(xm=1.2, alpha=2.5)".
	String() string
}

// Hazard returns the hazard rate PDF(x)/Survival(x) of d at x, or 0 where
// the survival vanishes.
func Hazard(d Dist, x float64) float64 {
	s := d.Survival(x)
	if s <= 0 {
		return 0
	}
	return d.PDF(x) / s
}

// MeanExcess returns E[(T − x)⁺] = ∫_x^∞ Survival(t) dt, the expected
// residual mass beyond x. The lattice solvers use it to correct means of
// heavy-tailed distributions truncated at the grid horizon. Closed forms
// are used when the concrete type provides them (see meanExcesser);
// otherwise the integral is evaluated numerically.
func MeanExcess(d Dist, x float64) float64 {
	if me, ok := d.(meanExcesser); ok {
		return me.meanExcess(x)
	}
	_, hi := d.Support()
	if x >= hi {
		return 0
	}
	if math.IsInf(hi, 1) {
		return quad.ToInf(d.Survival, x, 1e-10)
	}
	return quad.Simpson(d.Survival, x, hi, 1e-10)
}

// meanExcesser is implemented by distributions with a closed-form
// mean-excess function.
type meanExcesser interface {
	meanExcess(x float64) float64
}

// aged is the generic aged-distribution wrapper used by families without
// a closed-form residual law. All quantities follow from
//
//	S_a(t) = S(a+t)/S(a),  f_a(t) = f(a+t)/S(a).
type aged struct {
	base Dist
	a    float64
	sa   float64 // Survival(a), cached
}

// newAged constructs the generic aged view, validating the age.
func newAged(base Dist, a float64) Dist {
	if a < 0 || math.IsNaN(a) {
		panic(fmt.Sprintf("dist: negative age %g", a))
	}
	if a == 0 {
		return base
	}
	sa := base.Survival(a)
	if sa <= 0 {
		panic(fmt.Sprintf("dist: aging %v past its support (a=%g)", base, a))
	}
	return &aged{base: base, a: a, sa: sa}
}

func (d *aged) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	return d.base.PDF(d.a+x) / d.sa
}

func (d *aged) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 - d.Survival(x)
}

func (d *aged) Survival(x float64) float64 {
	if x <= 0 {
		return 1
	}
	return d.base.Survival(d.a+x) / d.sa
}

func (d *aged) Quantile(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return 0
	}
	// S(a+x) = (1-p)·S(a)  ⇒  a+x = Q(1 − (1−p)·S(a)).
	q := d.base.Quantile(1 - (1-p)*d.sa)
	x := q - d.a
	if x < 0 {
		return 0
	}
	return x
}

func (d *aged) Mean() float64 {
	// E[T_a] = ∫_0^∞ S_a(t) dt = (1/S(a)) ∫_a^∞ S(t) dt.
	return MeanExcess(d.base, d.a) / d.sa
}

func (d *aged) Var() float64 {
	if math.IsInf(d.base.Var(), 1) {
		// A finite age cannot make an infinite-variance tail finite.
		return math.Inf(1)
	}
	// E[T_a²] = 2 ∫ t·S_a(t) dt.
	m := d.Mean()
	m2 := 2 * quad.ToInf(func(t float64) float64 { return t * d.Survival(t) }, 0, 1e-10)
	v := m2 - m*m
	if v < 0 {
		return 0
	}
	return v
}

func (d *aged) Sample(r *rand.Rand) float64 {
	return d.Quantile(r.Float64())
}

func (d *aged) Support() (lo, hi float64) {
	blo, bhi := d.base.Support()
	lo = blo - d.a
	if lo < 0 {
		lo = 0
	}
	if math.IsInf(bhi, 1) {
		return lo, bhi
	}
	hi = bhi - d.a
	if hi < 0 {
		hi = 0
	}
	return lo, hi
}

func (d *aged) Aged(a float64) Dist {
	if a == 0 {
		return d
	}
	// Aging an aged view composes: (T_a)_b = T_{a+b}.
	return newAged(d.base, d.a+a)
}

func (d *aged) String() string {
	return fmt.Sprintf("Aged(%v, a=%g)", d.base, d.a)
}

// checkProb validates a probability argument for Quantile implementations.
func checkProb(p float64) bool {
	return !math.IsNaN(p) && p >= 0 && p <= 1
}
