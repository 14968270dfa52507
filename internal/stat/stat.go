// Package stat provides descriptive statistics: moments, quantiles,
// normalized histograms, Kolmogorov–Smirnov distances and confidence
// intervals for Monte-Carlo estimates. Fitting lives in dist/fit.
package stat

import (
	"fmt"
	"math"
	"sort"

	"dtr/internal/specfn"
)

// Mean returns the sample mean of xs (NaN for an empty sample).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Var returns the unbiased sample variance of xs (NaN for n < 2).
func Var(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Var(xs)) }

// Min returns the smallest element of xs (NaN for an empty sample).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs (NaN for an empty sample).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the p-quantile of xs by linear interpolation of the
// order statistics (type-7, the common default). xs need not be sorted.
func Quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 || math.IsNaN(p) || p < 0 || p > 1 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	h := p * float64(len(s)-1)
	i := int(h)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (h-float64(i))*(s[i+1]-s[i])
}

// Histogram is a normalized histogram: Density[i] is the estimated
// probability density over [Edges[i], Edges[i+1]). The paper fits
// candidate pdfs by least total squared error against exactly this
// object.
type Histogram struct {
	Edges   []float64 // len = bins+1
	Density []float64 // len = bins
	Count   []int     // raw counts, len = bins
	N       int       // total observations
}

// NewHistogram bins xs into the given number of equal-width bins spanning
// [min, max]. bins must be ≥ 1 and xs non-empty.
func NewHistogram(xs []float64, bins int) *Histogram {
	if len(xs) == 0 || bins < 1 {
		panic(fmt.Sprintf("stat: histogram needs data and bins >= 1 (n=%d bins=%d)", len(xs), bins))
	}
	lo, hi := Min(xs), Max(xs)
	if lo == hi {
		hi = lo + 1 // degenerate sample: one wide bin
	}
	h := &Histogram{
		Edges:   make([]float64, bins+1),
		Density: make([]float64, bins),
		Count:   make([]int, bins),
		N:       len(xs),
	}
	w := (hi - lo) / float64(bins)
	for i := range h.Edges {
		h.Edges[i] = lo + float64(i)*w
	}
	for _, x := range xs {
		i := int((x - lo) / w)
		if i >= bins {
			i = bins - 1 // right edge inclusive
		}
		if i < 0 {
			i = 0
		}
		h.Count[i]++
	}
	for i, c := range h.Count {
		h.Density[i] = float64(c) / (float64(h.N) * w)
	}
	return h
}

// Mids returns the midpoints of the histogram bins.
func (h *Histogram) Mids() []float64 {
	mids := make([]float64, len(h.Density))
	for i := range mids {
		mids[i] = (h.Edges[i] + h.Edges[i+1]) / 2
	}
	return mids
}

// TotalSquaredError returns Σ_bins (density_i − pdf(mid_i))², the model
// selection criterion the paper uses to pick among fitted pdfs.
func (h *Histogram) TotalSquaredError(pdf func(float64) float64) float64 {
	var sse float64
	for i, mid := range h.Mids() {
		d := h.Density[i] - pdf(mid)
		sse += d * d
	}
	return sse
}

// KSDistance returns the Kolmogorov–Smirnov statistic
// sup_x |ECDF(x) − cdf(x)| between the sample and a reference CDF.
func KSDistance(xs []float64, cdf func(float64) float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	var d float64
	for i, x := range s {
		c := cdf(x)
		if hi := float64(i+1)/n - c; hi > d {
			d = hi
		}
		if lo := c - float64(i)/n; lo > d {
			d = lo
		}
	}
	return d
}

// MeanCI returns the sample mean of xs and the half-width of its
// normal-approximation confidence interval at the given confidence level
// (e.g. 0.95). The paper reports Monte-Carlo metrics as centers of 95%
// confidence intervals.
func MeanCI(xs []float64, level float64) (mean, half float64) {
	n := len(xs)
	mean = Mean(xs)
	if n < 2 {
		return mean, math.NaN()
	}
	z := specfn.NormQuantile(0.5 + level/2)
	return mean, z * StdDev(xs) / math.Sqrt(float64(n))
}

// ProportionCI returns the point estimate and confidence half-width for a
// Bernoulli proportion with k successes out of n trials (Wald interval
// with a continuity floor; adequate at Monte-Carlo sample sizes).
func ProportionCI(k, n int, level float64) (p, half float64) {
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	p = float64(k) / float64(n)
	z := specfn.NormQuantile(0.5 + level/2)
	half = z * math.Sqrt(p*(1-p)/float64(n))
	if minHalf := z / (2 * float64(n)); half < minHalf {
		half = minHalf
	}
	return p, half
}
