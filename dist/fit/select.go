package fit

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"dtr/dist"
	"dtr/internal/stat"
	"dtr/modelspec"
)

// Family names a fittable distribution family. The values are exactly
// the modelspec type strings, so a selected family round-trips into a
// spec document without translation.
type Family string

const (
	FamilyExponential Family = "exponential"
	FamilyGamma       Family = "gamma"
	FamilyShiftedGam  Family = "shifted-gamma"
	FamilyPareto      Family = "pareto"
	FamilyLogNormal   Family = "lognormal"
	FamilyHyperExp    Family = "hyperexponential"
	// Fitted only when a family list names them: neither is in Families.
	FamilyUniform    Family = "uniform"
	FamilyShiftedExp Family = "shifted-exponential"
)

// Families returns the families selection considers when none are
// named, in selection order. They are also the only names ParseFamilies
// accepts, i.e. the ones the wire surfaces can ask for.
func Families() []Family {
	return []Family{
		FamilyExponential, FamilyGamma, FamilyShiftedGam,
		FamilyPareto, FamilyLogNormal, FamilyHyperExp,
	}
}

// PaperFamilies returns the six candidates of the paper's testbed
// characterization (§III-B, Fig. 4), in the order its tables list them.
func PaperFamilies() []Family {
	return []Family{
		FamilyExponential, FamilyPareto, FamilyUniform,
		FamilyShiftedExp, FamilyGamma, FamilyShiftedGam,
	}
}

// ParseFamilies converts family names (modelspec type strings) into
// Family values, rejecting unknown names.
func ParseFamilies(names []string) ([]Family, error) {
	var out []Family
	for _, n := range names {
		if !slices.Contains(Families(), Family(n)) {
			return nil, fmt.Errorf("fit: unknown family %q", n)
		}
		out = append(out, Family(n))
	}
	return out, nil
}

// params returns the number of free parameters the family fits.
func (f Family) params() int {
	switch f {
	case FamilyExponential:
		return 1
	case FamilyShiftedGam:
		return 3
	default: // gamma, pareto, lognormal, hyperexponential(mean, scv), uniform, shifted-exponential
		return 2
	}
}

// Result is one family's fit to a sample with its selection scores.
type Result struct {
	Family Family
	Dist   dist.Dist
	// LogLik is the maximized censored log-likelihood.
	LogLik float64
	// AIC is 2k − 2·LogLik (lower is better), with k the number of
	// fitted parameters.
	AIC float64
	// KS is the Kolmogorov–Smirnov distance between the fitted CDF and
	// the empirical CDF of the *uncensored* part of the sample.
	KS float64
	// Params is the number of fitted parameters.
	Params int
}

// Channel is the view of one delay channel's censored observations
// that the selection rule, the spec assembler (Channels.Spec) and the
// drift detector (internal/adapt) are written against. Sample
// implements it on raw observations, *Stats on bounded-memory
// sufficient statistics. The two sources share the pipeline, not the
// numerics — each answers with its own estimators:
//
//	         Sample (raw)             *Stats (sketch)
//	Mean     arithmetic mean          Sum/N, exact
//	StdDev   unbiased (n−1)           population, from SumSq
//	KS       exact empirical CDF      empirical CDF at the bucket edges
//	Fit      censored MLEs            closed forms from the accumulators,
//	                                  else the MLE of a pseudo-sample
type Channel interface {
	// Exact and Censored count the exact and the right-censored
	// observations.
	Exact() int
	Censored() int
	// Mean and StdDev summarize the exact observations.
	Mean() float64
	StdDev() float64
	// KS is the Kolmogorov–Smirnov distance between the exact
	// observations and cdf.
	KS(cdf func(float64) float64) float64
	// Fit fits one family and scores it for selection.
	Fit(f Family) (Result, error)
}

// Fit fits one family to a censored sample.
func Fit(f Family, s Sample) (Result, error) { return s.Fit(f) }

// Fit fits one family to the sample by censored maximum likelihood.
func (s Sample) Fit(f Family) (Result, error) {
	d, err := s.estimate(f)
	if err != nil {
		return Result{}, err
	}
	return score(f, d, s, s)
}

// estimate returns family f's censored MLE on the sample.
func (s Sample) estimate(f Family) (dist.Dist, error) {
	switch f {
	case FamilyExponential:
		return Exponential(s)
	case FamilyGamma:
		return Gamma(s)
	case FamilyShiftedGam:
		return ShiftedGamma(s)
	case FamilyPareto:
		return Pareto(s)
	case FamilyLogNormal:
		return LogNormal(s)
	case FamilyHyperExp:
		return HyperExp(s)
	case FamilyUniform:
		return Uniform(s)
	case FamilyShiftedExp:
		return ShiftedExponential(s)
	default:
		return nil, fmt.Errorf("fit: unknown family %q", f)
	}
}

// score builds the Result of law d for family f: likelihood and AIC
// against sample, KS against the channel the fit is for — the sample
// itself on the raw side, the sketch behind a pseudo-sample on the
// statistics side, so closed-form and reconstructed fits rank on one
// scale.
func score(f Family, d dist.Dist, sample Sample, c Channel) (Result, error) {
	ll := LogLik(d, sample)
	if math.IsInf(ll, -1) || math.IsNaN(ll) {
		return Result{}, fmt.Errorf("fit: %s fit has degenerate likelihood", f)
	}
	k := f.params()
	return Result{
		Family: f,
		Dist:   d,
		LogLik: ll,
		AIC:    2*float64(k) - 2*ll,
		KS:     c.KS(d.CDF),
		Params: k,
	}, nil
}

// fitAll fits every requested family (Families when fams is nil) to
// the channel, in the order given. Families that cannot fit it are
// silently skipped; the result may be empty.
func fitAll(c Channel, fams []Family) []Result {
	if fams == nil {
		fams = Families()
	}
	fit := c.Fit
	if s, ok := c.(*Stats); ok {
		if s.Validate() != nil {
			return nil
		}
		sample := s.Sample(DefaultPseudoSample)
		fit = func(f Family) (Result, error) { return s.fitSample(f, sample) }
	}
	var out []Result
	for _, f := range fams {
		if r, err := fit(f); err == nil {
			out = append(out, r)
		}
	}
	return out
}

// Ranked is one row of RankTSE: a family's fit to an uncensored sample,
// scored for both selection rules.
type Ranked struct {
	Result
	// Name is the family as the paper's tables print it: the modelspec
	// type string with each word capitalized, e.g. "Shifted-Gamma".
	Name string
	// TSE is the total squared error between the fitted pdf and the
	// normalized histogram of the sample — the paper's selection score.
	TSE float64
}

// RankTSE fits the listed families to an uncensored sample and returns
// the successful fits by ascending total squared error against the
// sample's bins-bin normalized histogram — the paper's selection rule
// (§III-B). A sample that is empty or holds a non-positive observation,
// or bins < 1, gets no rows.
func RankTSE(obs []float64, fams []Family, bins int) []Ranked {
	if len(obs) == 0 || bins < 1 {
		return nil
	}
	// Heavy-tailed samples (the whole point of the paper's Pareto models)
	// would stretch an equal-width histogram over a handful of extreme
	// observations, starving the body of resolution; clip the histogram —
	// not the data — at the 99th percentile, as one does when plotting.
	clip := stat.Quantile(obs, 0.99)
	body := make([]float64, 0, len(obs))
	for _, x := range obs {
		if x <= clip {
			body = append(body, x)
		}
	}
	h := stat.NewHistogram(body, bins)
	var out []Ranked
	for _, r := range fitAll(Sample{Obs: obs}, fams) {
		words := strings.Split(string(r.Family), "-")
		for i, w := range words {
			words[i] = strings.ToUpper(w[:1]) + w[1:]
		}
		out = append(out, Ranked{Result: r, Name: strings.Join(words, "-"), TSE: h.TotalSquaredError(r.Dist.PDF)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TSE < out[j].TSE })
	return out
}

// Select fits the requested families (Families when fams is nil) and
// picks the winner: lowest AIC, with near-ties (ΔAIC ≤ 2, the standard
// "substantial support" band) broken by the smaller KS distance on the
// uncensored part of the sample. AIC alone cannot distinguish models
// within that band, and for planning purposes the law that tracks the
// empirical CDF most closely is the safer choice.
func Select(s Sample, fams []Family) (Result, error) { return selectBest(s, fams) }

// selectBest is the selection rule behind Select and SelectStats.
func selectBest(c Channel, fams []Family) (Result, error) {
	all := fitAll(c, fams)
	if len(all) == 0 {
		return Result{}, fmt.Errorf("fit: no family admits a fit (n=%d, censored=%d)", c.Exact()+c.Censored(), c.Censored())
	}
	lead := all[0]
	for _, r := range all[1:] {
		if r.AIC < lead.AIC {
			lead = r
		}
	}
	best := lead
	for _, r := range all {
		if r.AIC-lead.AIC <= 2 && r.KS < best.KS {
			best = r
		}
	}
	return best, nil
}

// SpecFor converts a fitted distribution into the equivalent modelspec
// DistSpec. It navigates the spec layer's zero-means-default rules: a
// shifted gamma whose shift collapsed to (essentially) zero is emitted
// as a plain gamma, because shiftFrac 0 would be re-read as the default
// 0.5. A Pareto with α ≤ 1 has no finite mean and is inexpressible in
// the mean-parameterized spec; that is an error.
func SpecFor(d dist.Dist) (modelspec.DistSpec, error) {
	switch v := d.(type) {
	case dist.Exponential:
		return modelspec.DistSpec{Type: "exponential", Mean: v.Mean()}, nil
	case dist.Gamma:
		return modelspec.DistSpec{Type: "gamma", Mean: v.Mean(), Shape: v.K}, nil
	case dist.ShiftedGamma:
		mean := v.Mean()
		if !(mean > 0) {
			return modelspec.DistSpec{}, fmt.Errorf("fit: shifted-gamma spec needs positive mean, got %g", mean)
		}
		frac := v.Shift / mean
		if frac < 1e-9 {
			// Genuinely unshifted: emit plain gamma (shiftFrac 0 would be
			// re-read as the 0.5 default).
			return modelspec.DistSpec{Type: "gamma", Mean: v.G.Mean(), Shape: v.G.K}, nil
		}
		return modelspec.DistSpec{Type: "shifted-gamma", Mean: mean, Shape: v.G.K, ShiftFrac: frac}, nil
	case dist.Pareto:
		if v.Alpha <= 1 {
			return modelspec.DistSpec{}, fmt.Errorf("fit: Pareto alpha %.4g <= 1 has no finite mean and cannot be expressed in a mean-parameterized spec", v.Alpha)
		}
		return modelspec.DistSpec{Type: "pareto", Mean: v.Mean(), Alpha: v.Alpha}, nil
	case dist.LogNormal:
		return modelspec.DistSpec{Type: "lognormal", Mean: v.Mean(), Sigma: v.Sigma}, nil
	case dist.HyperExponential:
		mean := v.Mean()
		if !(mean > 0) {
			return modelspec.DistSpec{}, fmt.Errorf("fit: hyperexponential spec needs positive mean, got %g", mean)
		}
		scv := v.Var() / (mean * mean)
		if !(scv > 1) {
			return modelspec.DistSpec{}, fmt.Errorf("fit: hyperexponential scv %.4g must exceed 1", scv)
		}
		return modelspec.DistSpec{Type: "hyperexponential", Mean: mean, Scv: scv}, nil
	default:
		return modelspec.DistSpec{}, fmt.Errorf("fit: no spec mapping for %T", d)
	}
}
