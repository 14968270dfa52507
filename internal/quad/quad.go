// Package quad provides the numerical integration routines used by the
// analytical solvers: adaptive Simpson quadrature on finite intervals
// and semi-infinite integration via rational substitution.
//
// The regeneration-based characterization of the workload execution time
// (paper, Theorem 1) is a system of integral equations over the
// regeneration-time density; every metric evaluation ultimately reduces to
// integrals computed by this package.
package quad

import "math"

// DefaultTol is the default absolute error target for adaptive rules.
const DefaultTol = 1e-9

// maxDepth bounds the recursion of the adaptive Simpson rule. 2^40 panel
// splits is far beyond anything a sane integrand needs; hitting the bound
// returns the best available estimate.
const maxDepth = 40

// Simpson integrates f over [a, b] with the adaptive Simpson rule to the
// absolute tolerance tol (DefaultTol if tol <= 0). It is robust for the
// piecewise-smooth densities produced by the distribution library.
func Simpson(f func(float64) float64, a, b, tol float64) float64 {
	if tol <= 0 {
		tol = DefaultTol
	}
	if a == b {
		return 0
	}
	if a > b {
		return -Simpson(f, b, a, tol)
	}
	fa, fm, fb := f(a), f((a+b)/2), f(b)
	whole := (b - a) / 6 * (fa + 4*fm + fb)
	return adaptiveSimpson(f, a, b, fa, fm, fb, whole, tol, maxDepth)
}

func adaptiveSimpson(f func(float64) float64, a, b, fa, fm, fb, whole, tol float64, depth int) float64 {
	m := (a + b) / 2
	lm, rm := (a+m)/2, (m+b)/2
	flm, frm := f(lm), f(rm)
	left := (m - a) / 6 * (fa + 4*flm + fm)
	right := (b - m) / 6 * (fm + 4*frm + fb)
	if depth <= 0 {
		return left + right
	}
	if d := left + right - whole; math.Abs(d) <= 15*tol {
		return left + right + d/15 // Richardson extrapolation
	}
	return adaptiveSimpson(f, a, m, fa, flm, fm, left, tol/2, depth-1) +
		adaptiveSimpson(f, m, b, fm, frm, fb, right, tol/2, depth-1)
}

// ToInf integrates f over [a, ∞) by the substitution x = a + t/(1-t),
// t ∈ [0, 1), which maps the half-line to the unit interval with Jacobian
// 1/(1-t)^2, then applies adaptive Simpson. f must decay at least as fast
// as x^{-2-ε} for the transformed integrand to be integrable at t=1; the
// endpoint is clipped slightly inside the interval to avoid overflow.
func ToInf(f func(float64) float64, a, tol float64) float64 {
	const clip = 1e-12
	g := func(t float64) float64 {
		if t >= 1-clip {
			return 0
		}
		u := 1 - t
		x := a + t/u
		v := f(x)
		if v == 0 {
			return 0
		}
		return v / (u * u)
	}
	return Simpson(g, 0, 1-clip, tol)
}
