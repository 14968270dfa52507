package stat

import (
	"fmt"
	"math"
	"sort"

	"dtr/dist"
	"dtr/internal/specfn"
)

// Fit is the result of fitting one candidate family to a sample:
// the fitted distribution, its name, and goodness-of-fit scores.
type Fit struct {
	Name string
	Dist dist.Dist
	// LogLik is the maximized log-likelihood (NaN if the family cannot
	// fit the sample, e.g. non-positive data for a Pareto).
	LogLik float64
	// TSE is the total squared error between the fitted pdf and the
	// normalized histogram of the sample — the paper's selection score.
	TSE float64
	// KS is the Kolmogorov–Smirnov distance to the sample.
	KS float64
	// AIC is the Akaike information criterion 2k − 2·LogLik (lower is
	// better); it complements the paper's TSE criterion with a
	// parameter-count penalty.
	AIC float64
	// Params is the number of fitted parameters.
	Params int
}

// FitExponential returns the MLE exponential fit: rate = 1/mean.
func FitExponential(xs []float64) (dist.Dist, error) {
	m := Mean(xs)
	if !(m > 0) {
		return nil, fmt.Errorf("stat: exponential fit needs positive mean, got %g", m)
	}
	return dist.NewExponential(m), nil
}

// FitPareto returns the MLE Pareto fit: x_m = min sample,
// alpha = n / Σ log(x_i / x_m). This is the estimator the paper's testbed
// characterization used for service times.
func FitPareto(xs []float64) (dist.Dist, error) {
	if len(xs) < 2 {
		return nil, fmt.Errorf("stat: Pareto fit needs >= 2 observations")
	}
	xm := Min(xs)
	if xm <= 0 {
		return nil, fmt.Errorf("stat: Pareto fit needs positive data, min = %g", xm)
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x / xm)
	}
	if s <= 0 {
		return nil, fmt.Errorf("stat: degenerate sample for Pareto fit")
	}
	alpha := float64(len(xs)) / s
	return dist.Pareto{Xm: xm, Alpha: alpha}, nil
}

// FitUniform returns the MLE uniform fit on [min, max] of the sample.
func FitUniform(xs []float64) (dist.Dist, error) {
	lo, hi := Min(xs), Max(xs)
	if !(lo < hi) || lo < 0 {
		return nil, fmt.Errorf("stat: uniform fit needs spread non-negative data")
	}
	return dist.NewUniform(lo, hi), nil
}

// FitShiftedExponential returns the MLE shifted-exponential fit:
// shift = min sample, rate = 1/(mean − shift).
func FitShiftedExponential(xs []float64) (dist.Dist, error) {
	if len(xs) < 2 {
		return nil, fmt.Errorf("stat: shifted-exponential fit needs >= 2 observations")
	}
	shift := Min(xs)
	m := Mean(xs)
	if shift < 0 || m <= shift {
		return nil, fmt.Errorf("stat: degenerate sample for shifted-exponential fit")
	}
	return dist.NewShiftedExponential(shift, m), nil
}

// FitGamma returns the MLE gamma fit of a positive sample; see GammaMLE.
func FitGamma(xs []float64) (dist.Dist, error) {
	if len(xs) < 2 {
		return nil, fmt.Errorf("stat: gamma fit needs >= 2 observations")
	}
	m := Mean(xs)
	if !(m > 0) || Min(xs) <= 0 {
		return nil, fmt.Errorf("stat: gamma fit needs positive data")
	}
	var meanLog float64
	for _, x := range xs {
		meanLog += math.Log(x)
	}
	meanLog /= float64(len(xs))
	return GammaMLE(m, math.Log(m)-meanLog)
}

// GammaMLE returns the gamma MLE from the two statistics it depends on,
// the sample mean and s = log(mean) − mean(log x): Newton iteration on
// the shape equation log(k) − ψ(k) = s, started from the standard
// Choi–Wette approximation; the rate follows from the mean.
func GammaMLE(mean, s float64) (dist.Gamma, error) {
	if !(s > 0) {
		return dist.Gamma{}, fmt.Errorf("stat: degenerate sample for gamma fit")
	}
	k := (3 - s + math.Sqrt((s-3)*(s-3)+24*s)) / (12 * s)
	for i := 0; i < 60; i++ {
		f := math.Log(k) - specfn.Digamma(k) - s
		fp := 1/k - specfn.Trigamma(k)
		nk := k - f/fp
		if nk <= 0 {
			nk = k / 2
		}
		if math.Abs(nk-k) < 1e-12*(1+k) {
			k = nk
			break
		}
		k = nk
	}
	if !(k > 0) || math.IsInf(k, 0) {
		return dist.Gamma{}, fmt.Errorf("stat: gamma shape iteration diverged")
	}
	return dist.Gamma{K: k, Rate: k / mean}, nil
}

// FitShiftedGamma fits a three-parameter (shift, shape, rate) gamma by
// profiling the shift: for each candidate shift the (shape, rate) MLE is
// the ordinary gamma fit of the shifted residuals, and the shift with the
// highest profile likelihood wins. This mirrors the paper's testbed
// pipeline, which fitted shifted gamma laws to transfer-time histograms.
func FitShiftedGamma(xs []float64) (dist.Dist, error) {
	if len(xs) < 4 {
		return nil, fmt.Errorf("stat: shifted-gamma fit needs >= 4 observations")
	}
	lo := Min(xs)
	if lo < 0 {
		return nil, fmt.Errorf("stat: shifted-gamma fit needs non-negative data")
	}
	// Candidate shifts scan [0, just below the minimum]; the MLE of a
	// displacement parameter is typically at or near the sample minimum,
	// but the likelihood can be multimodal, so scan rather than descend.
	const candidates = 40
	bestLL := math.Inf(-1)
	var best dist.Dist
	for i := 0; i <= candidates; i++ {
		shift := lo * (float64(i) / float64(candidates)) * (1 - 1e-9)
		shifted := make([]float64, len(xs))
		ok := true
		for j, x := range xs {
			shifted[j] = x - shift
			if shifted[j] <= 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		g, err := FitGamma(shifted)
		if err != nil {
			continue
		}
		gg := g.(dist.Gamma)
		cand := dist.ShiftedGamma{Shift: shift, G: gg}
		ll := LogLikelihood(cand, xs)
		if ll > bestLL {
			bestLL, best = ll, cand
		}
	}
	if best == nil {
		return nil, fmt.Errorf("stat: no admissible shifted-gamma fit")
	}
	return best, nil
}

// LogLikelihood returns Σ log pdf(x_i), or -Inf if any observation has
// zero density under d.
func LogLikelihood(d dist.Dist, xs []float64) float64 {
	var ll float64
	for _, x := range xs {
		p := d.PDF(x)
		if p <= 0 || math.IsInf(p, 1) {
			return math.Inf(-1)
		}
		ll += math.Log(p)
	}
	return ll
}

// FitAll fits every applicable candidate family to the sample, scores
// each by log-likelihood, total squared error against a bins-bin
// normalized histogram, and KS distance, and returns the fits sorted by
// ascending TSE (the paper's selection rule: minimum total squared error
// between normalized histogram and fitted pdf).
func FitAll(xs []float64, bins int) []Fit {
	type namedFitter struct {
		name   string
		params int
		fit    func([]float64) (dist.Dist, error)
	}
	fitters := []namedFitter{
		{"Exponential", 1, FitExponential},
		{"Pareto", 2, FitPareto},
		{"Uniform", 2, FitUniform},
		{"Shifted-Exponential", 2, FitShiftedExponential},
		{"Gamma", 2, FitGamma},
		{"Shifted-Gamma", 3, FitShiftedGamma},
	}
	// Heavy-tailed samples (the whole point of the paper's Pareto models)
	// would stretch an equal-width histogram over a handful of extreme
	// observations, starving the body of resolution; clip the histogram —
	// not the data — at the 99th percentile, as one does when plotting.
	clip := Quantile(xs, 0.99)
	body := make([]float64, 0, len(xs))
	for _, x := range xs {
		if x <= clip {
			body = append(body, x)
		}
	}
	h := NewHistogram(body, bins)
	var out []Fit
	for _, nf := range fitters {
		d, err := nf.fit(xs)
		if err != nil {
			continue
		}
		ll := LogLikelihood(d, xs)
		out = append(out, Fit{
			Name:   nf.name,
			Dist:   d,
			LogLik: ll,
			TSE:    h.TotalSquaredError(d.PDF),
			KS:     KSDistance(xs, d.CDF),
			AIC:    2*float64(nf.params) - 2*ll,
			Params: nf.params,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TSE < out[j].TSE })
	return out
}
