// Package specfn provides the special functions required by the
// distribution library and the statistical fitting pipeline: the
// regularized incomplete gamma function and its inverse, the digamma and
// trigamma functions, and the standard normal CDF and quantile.
//
// The Go standard library supplies math.Gamma, math.Lgamma and math.Erf;
// everything else here is implemented from scratch using the classic
// series/continued-fraction decomposition (Abramowitz & Stegun §6.5,
// Numerical Recipes §6.2) with double-precision accuracy targets.
// GammaLogQSum runs the same two expansions over a whole vector of
// censoring bounds for the censored-gamma likelihood.
package specfn

import (
	"errors"
	"math"
)

// Eps is the relative accuracy target for the iterative expansions.
const Eps = 1e-14

// maxIter bounds every iterative expansion in this package.
const maxIter = 500

// ErrNoConverge is returned (or wrapped) when an iterative expansion fails
// to reach the accuracy target within the iteration budget.
var ErrNoConverge = errors.New("specfn: series did not converge")

// GammaP computes the regularized lower incomplete gamma function
//
//	P(a, x) = γ(a, x) / Γ(a),  a > 0, x ≥ 0,
//
// which is the CDF at x of a Gamma(shape=a, rate=1) random variable.
func GammaP(a, x float64) float64 {
	p, _ := gammaPQ(a, x)
	return p
}

// GammaQ computes the regularized upper incomplete gamma function
// Q(a, x) = 1 - P(a, x), accurate in the right tail.
func GammaQ(a, x float64) float64 {
	_, q := gammaPQ(a, x)
	return q
}

// gammaPQ evaluates P(a,x) and Q(a,x) together, choosing between the
// series expansion (x < a+1) and the continued fraction (x ≥ a+1) so that
// whichever of the pair is small is computed directly.
func gammaPQ(a, x float64) (p, q float64) {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN(), math.NaN()
	case x < 0:
		return math.NaN(), math.NaN()
	case x == 0:
		return 0, 1
	case math.IsInf(x, 1):
		return 1, 0
	}
	lg, _ := math.Lgamma(a)
	if x < a+1 {
		p = gammaSeries(a, x) * prefactor(a, x, lg)
		return p, 1 - p
	}
	var cf gammaCF
	cf.start(a, x)
	for i := 1; i <= maxIter && !cf.step(a, i); i++ {
	}
	q = prefactor(a, x, lg) * cf.h
	return 1 - q, q
}

// prefactor returns e^{-x} x^a / Γ(a), the factor both expansions
// share, given lg = ln Γ(a).
func prefactor(a, x, lg float64) float64 { return math.Exp(-x + a*math.Log(x) - lg) }

// gammaSeries returns the sum of the power series
// γ(a,x) = e^{-x} x^a Σ_{n≥0} Γ(a)/Γ(a+1+n) x^n, valid for x < a+1:
// P(a,x) is the sum times the prefactor.
func gammaSeries(a, x float64) float64 {
	ap := a
	sum := 1.0 / a
	del := sum
	for n := 0; n < maxIter; n++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*Eps {
			break
		}
	}
	// Extremely skewed inputs stop at the budget with the best estimate
	// rather than panic; it is still accurate to ~sqrt(Eps) in practice.
	return sum
}

// gammaCF is one modified-Lentz evaluation of the continued fraction
// Γ(a,x)/Γ(a) = e^{-x} x^a · h, h = 1/(x+1-a- 1·(1-a)/(x+3-a- ...)),
// x ≥ a+1: Q(a,x) is h times the prefactor. Its state lives in the
// caller's frame, so several fractions can step in lockstep, each one's
// division chain hiding another's latency, with every h bit-identical to
// a fraction stepped alone.
type gammaCF struct{ b, c, d, h float64 }

const cfTiny = 1e-300

func (f *gammaCF) start(a, x float64) {
	f.b = x + 1 - a
	f.c = 1 / cfTiny
	f.d = 1 / f.b
	f.h = f.d
}

// step folds in the i-th term (i = 1, 2, …) and reports convergence.
func (f *gammaCF) step(a float64, i int) bool {
	fi := float64(i)
	an := -fi * (fi - a)
	f.b += 2
	d, c := an*f.d+f.b, f.b+an/f.c
	if math.Abs(d) < cfTiny {
		d = cfTiny
	}
	if math.Abs(c) < cfTiny {
		c = cfTiny
	}
	f.d, f.c = 1/d, c
	del := f.d * c
	f.h *= del
	return math.Abs(del-1) < Eps
}

// cfLanes is how many continued fractions GammaLogQSum steps in lockstep.
const cfLanes = 2

// stepLanes steps every fraction in f (at most cfLanes) in lockstep,
// each until its own convergence or the iteration budget; a converged
// fraction is frozen, so its h is the one it reaches stepped alone.
func stepLanes(a float64, f []gammaCF) {
	var done [cfLanes]bool
	live := len(f)
	for i := 1; i <= maxIter && live > 0; i++ {
		for l := range f {
			if !done[l] && f[l].step(a, i) {
				done[l] = true
				live--
			}
		}
	}
}

// GammaLogQSum returns Σᵢ ln Q(a, r·cᵢ), the log-survival of censoring
// bounds cᵢ under a Gamma(shape=a, rate=r) law, given lnc[i] = ln cᵢ.
// A bound cᵢ ≤ 0 (or r·cᵢ = 0) contributes ln 1 = 0. The sum is −Inf
// wherever GammaQ would return 0 or NaN for some bound — the bounds a
// per-bound loop of ln GammaQ refuses — and agrees with that loop to
// rounding elsewhere.
//
// ln Γ(a) and ln r are taken once per call and each bound's prefactor
// −x + a·(ln r + ln cᵢ) − ln Γ(a) stays in log space, so a
// continued-fraction bound costs no Exp or Log. The per-bound factors —
// h for a continued-fraction bound, 1 − P for a series one — are
// multiplied in index order within each branch under math.Frexp
// renormalisation, and one Log closes the sum. Continued-fraction
// bounds step two at a time. Where a prefactor is so small or large that
// GammaQ's own arithmetic would underflow or overflow, or a series
// factor cancels to near zero, the bound is evaluated exactly as GammaQ
// evaluates it, so the −Inf set is the same.
func GammaLogQSum(a, r float64, c, lnc []float64) float64 {
	lg, _ := math.Lgamma(a)
	lnr := math.Log(r)
	var sum float64 // Σ prefactors of the continued-fraction bounds
	m, e := 1.0, 0  // Π factors = m·2^e
	mul := func(f float64) bool {
		if !(f > 0) {
			return false
		}
		var de int
		if f < 0x1p-500 { // a subnormal factor would underflow m
			f, de = math.Frexp(f)
			e += de
		}
		if m *= f; m < 0x1p-500 || m > 0x1p500 {
			m, de = math.Frexp(m)
			e += de
		}
		return true
	}
	// Continued-fraction bounds wait here until a full set of lanes can
	// step together.
	var lanes [cfLanes]gammaCF
	var pend [cfLanes]struct{ x, pre float64 }
	k := 0
	// flush steps the k pending fractions and settles each into its
	// factor, falling back to GammaQ's own arithmetic where a prefactor is
	// out of range.
	flush := func() bool {
		stepLanes(a, lanes[:k])
		for l, p := range pend[:k] {
			h := lanes[l].h
			if p.pre < -700 || p.pre > 700 || h < 0x1p-60 {
				h *= prefactor(a, p.x, lg)
			} else {
				sum += p.pre
			}
			if !mul(h) {
				return false
			}
		}
		k = 0
		return true
	}
	for i, ci := range c {
		if ci <= 0 {
			continue
		}
		x := r * ci
		switch {
		case x == 0:
			continue
		case !(x > 0 && x < math.Inf(1) && a > 0):
			return math.Inf(-1)
		}
		pre := -x + a*(lnr+lnc[i]) - lg
		if x < a+1 {
			s := gammaSeries(a, x)
			f := 1 - s*math.Exp(pre)
			if f < 0x1p-40 {
				f = 1 - s*prefactor(a, x, lg)
			}
			if !mul(f) {
				return math.Inf(-1)
			}
			continue
		}
		lanes[k].start(a, x)
		pend[k].x, pend[k].pre = x, pre
		if k++; k == cfLanes && !flush() {
			return math.Inf(-1)
		}
	}
	if k > 0 && !flush() {
		return math.Inf(-1)
	}
	return sum + math.Log(m) + float64(e)*math.Ln2
}

// GammaPInv returns x such that P(a, x) = p, the quantile function of a
// Gamma(shape=a, rate=1) random variable. It uses the Wilson–Hilferty
// normal approximation as a starting point followed by Halley iterations
// on P(a, x) - p.
func GammaPInv(a, p float64) float64 {
	switch {
	case math.IsNaN(a) || math.IsNaN(p) || a <= 0 || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return 0
	case p == 1:
		return math.Inf(1)
	}
	lg, _ := math.Lgamma(a)

	// Initial guess (Wilson–Hilferty); fall back to small-x expansion when
	// the cube-root transform would be non-positive.
	var x float64
	g := NormQuantile(p)
	t := 1 - 1.0/(9*a) + g/(3*math.Sqrt(a))
	if t > 0 {
		x = a * t * t * t
	}
	if x <= 0 {
		// P(a,x) ≈ x^a / (a Γ(a)) for small x.
		x = math.Exp((math.Log(p) + lg + math.Log(a)) / a)
	}

	for i := 0; i < 64; i++ {
		f := GammaP(a, x) - p
		// f' = pdf of Gamma(a,1) at x.
		lpdf := (a-1)*math.Log(x) - x - lg
		fp := math.Exp(lpdf)
		if fp == 0 {
			break
		}
		// Halley: u = f/f', correction u / (1 - u·f''/(2 f')) with
		// f''/f' = (a-1)/x - 1.
		u := f / fp
		den := 1 - u*((a-1)/x-1)/2
		if den <= 0.5 {
			den = 1 // fall back to Newton when curvature correction is unstable
		}
		dx := u / den
		nx := x - dx
		if nx <= 0 {
			nx = x / 2
		}
		if math.Abs(nx-x) < 1e-12*(math.Abs(nx)+1e-300) {
			return nx
		}
		x = nx
	}
	return x
}

// NormCDF returns the standard normal cumulative distribution function at x.
func NormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormQuantile returns the standard normal quantile (inverse CDF) at p,
// using the Acklam rational approximation refined by one Halley step on
// NormCDF, giving ~1e-15 relative accuracy over (0, 1).
func NormQuantile(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return math.Inf(-1)
	case p == 1:
		return math.Inf(1)
	}
	// Acklam's approximation coefficients.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}

	const plow = 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-plow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}

	// One Halley refinement.
	e := NormCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x
}

// Digamma returns ψ(x), the logarithmic derivative of the gamma function,
// for x > 0. It is required by the shifted-gamma maximum-likelihood fitter.
// Uses the recurrence ψ(x) = ψ(x+1) − 1/x to push x above 6, then the
// asymptotic expansion with Bernoulli-number coefficients.
func Digamma(x float64) float64 {
	if math.IsNaN(x) || x <= 0 {
		return math.NaN()
	}
	var result float64
	for x < 8 {
		result -= 1 / x
		x++
	}
	inv := 1 / x
	inv2 := inv * inv
	// ψ(x) ≈ ln x − 1/(2x) − Σ B_{2n}/(2n x^{2n})
	result += math.Log(x) - 0.5*inv -
		inv2*(1.0/12-inv2*(1.0/120-inv2*(1.0/252-inv2*(1.0/240-inv2*(1.0/132)))))
	return result
}

// Trigamma returns ψ′(x), the derivative of the digamma function, for x > 0.
// Used by Newton steps in the gamma-shape MLE.
func Trigamma(x float64) float64 {
	if math.IsNaN(x) || x <= 0 {
		return math.NaN()
	}
	var result float64
	for x < 8 {
		result += 1 / (x * x)
		x++
	}
	inv := 1 / x
	inv2 := inv * inv
	// ψ′(x) ≈ 1/x + 1/(2x²) + Σ B_{2n}/x^{2n+1}
	result += inv * (1 + 0.5*inv +
		inv2*(1.0/6-inv2*(1.0/30-inv2*(1.0/42-inv2*(1.0/30-inv2*(5.0/66))))))
	return result
}
