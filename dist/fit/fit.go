// Package fit estimates the repo's distribution families from measured
// delay samples by maximum likelihood, including *right-censored*
// observations — tasks still in service or servers still alive when the
// capture ended, whose recorded values are lower bounds. It is the
// statistics pipeline behind the paper's testbed characterization
// (§III-B): raw measurements in, a fitted law per delay channel out,
// assembled into a complete modelspec document the solvers can consume.
//
// Families: exponential, gamma, shifted-gamma, Pareto, lognormal and
// the balanced two-phase hyperexponential are the six that selection
// considers by default (Families) and that the wire surfaces accept by
// name; uniform and shifted-exponential are fitted on request only.
// Of the families modelspec can round-trip, Weibull and deterministic
// have no estimator here. Exponential, shifted-exponential, Pareto and
// uniform MLEs are closed-form; the others maximize the censored
// log-likelihood with a Nelder–Mead simplex in a log-transformed
// parameter space. For gamma, shifted-gamma and lognormal the exact
// observations enter that likelihood through sufficient statistics, so
// an evaluation costs only the censored bounds, whose survival terms
// have no closed form; the gamma's are summed in log space by
// specfn.GammaLogQSum from the bounds' logs, and an evaluation allocates
// nothing.
//
// The simplex is resumable: stopped at a loose tolerance and continued
// at a tighter one, it walks the vertices one tight run would. The
// shifted-gamma fit tightens its 33 shift candidates together through
// rounds 1e-1 … 1e-10 and after the round at τ drops those more than
// max(1, 200·τ·(1+|ℓ_best|)) nats below the round's best. That the
// candidate the full scan keeps is never dropped is measured on the
// tests' corpus (with 9× headroom), not proved; the fit is then bit for
// bit the one solving every candidate in full.
//
// There are two selection rules over the one estimator stack. Select
// ranks admissible fits by AIC and breaks near-ties (ΔAIC ≤ 2) by
// Kolmogorov–Smirnov distance on the uncensored part of the sample;
// RankTSE is the paper's rule for an uncensored sample, least total
// squared error between the fitted pdf and the normalized histogram.
package fit

import (
	"fmt"
	"math"

	"dtr/dist"
	"dtr/internal/specfn"
	"dtr/internal/stat"
)

// Sample is a partially right-censored sample: Obs holds exact
// observations, Cens holds lower bounds (the underlying time exceeded
// the recorded value when the capture ended).
type Sample struct {
	Obs  []float64
	Cens []float64
}

// N returns the total number of observations, censored included.
func (s Sample) N() int { return len(s.Obs) + len(s.Cens) }

// CensoredFrac returns the censored fraction of the sample.
func (s Sample) CensoredFrac() float64 {
	if s.N() == 0 {
		return 0
	}
	return float64(len(s.Cens)) / float64(s.N())
}

// Exact returns the number of exact observations.
func (s Sample) Exact() int { return len(s.Obs) }

// Censored returns the number of right-censored observations.
func (s Sample) Censored() int { return len(s.Cens) }

// Mean returns the mean of the exact observations.
func (s Sample) Mean() float64 { return stat.Mean(s.Obs) }

// StdDev returns the unbiased (n−1) standard deviation of the exact
// observations.
func (s Sample) StdDev() float64 { return stat.StdDev(s.Obs) }

// KS returns the Kolmogorov–Smirnov distance between the empirical CDF
// of the exact observations and cdf.
func (s Sample) KS(cdf func(float64) float64) float64 { return stat.KSDistance(s.Obs, cdf) }

// check validates the sample for fitting: exact observations must be
// positive and finite, censoring bounds non-negative and finite.
func (s Sample) check() error {
	for _, x := range s.Obs {
		if !(x > 0) || math.IsInf(x, 0) {
			return fmt.Errorf("fit: observations must be positive and finite, got %g", x)
		}
	}
	for _, c := range s.Cens {
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("fit: censoring bounds must be non-negative and finite, got %g", c)
		}
	}
	return nil
}

// LogLik returns the censored log-likelihood of the sample under d:
// Σ log f(x) over exact observations plus Σ log S(c) over censored
// ones, or −Inf if any observation has zero density (or a censoring
// bound zero survival) under d.
func LogLik(d dist.Dist, s Sample) float64 {
	var ll float64
	for _, x := range s.Obs {
		p := d.PDF(x)
		if !(p > 0) || math.IsInf(p, 1) {
			return math.Inf(-1)
		}
		ll += math.Log(p)
	}
	for _, c := range s.Cens {
		sv := d.Survival(c)
		if !(sv > 0) {
			return math.Inf(-1)
		}
		ll += math.Log(sv)
	}
	return ll
}

// sum returns Σ xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// Exponential returns the censored MLE exponential fit: the classic
// events-over-exposure estimator rate = n_obs / (Σ obs + Σ cens). This
// is the estimator a reliability monitor uses for failure channels,
// where most realizations end with the server still alive.
func Exponential(s Sample) (dist.Exponential, error) {
	if err := s.check(); err != nil {
		return dist.Exponential{}, err
	}
	return exponentialMLE(len(s.Obs), sum(s.Obs)+sum(s.Cens))
}

// exponentialMLE is the estimator from its sufficient statistics, the
// form a Stats holds them in: there it involves no sketch error at all.
func exponentialMLE(events int, exposure float64) (dist.Exponential, error) {
	if events == 0 {
		return dist.Exponential{}, fmt.Errorf("fit: exponential fit needs at least one exact observation")
	}
	if !(exposure > 0) {
		return dist.Exponential{}, fmt.Errorf("fit: degenerate exposure %g", exposure)
	}
	return dist.Exponential{Rate: float64(events) / exposure}, nil
}

// ShiftedExponential returns the censored MLE shifted-exponential fit:
// the shift is the smallest exact observation (every likelihood factor
// is non-decreasing in it) and the rate is events over exposure above
// the shift, n_obs / (Σ (obs − shift) + Σ (cens − shift)⁺), computed as
// 1/(mean − shift) with the bounds' excess folded into the mean. A bound
// at or below the shift carries no information (survival is 1 there).
func ShiftedExponential(s Sample) (dist.ShiftedExponential, error) {
	if err := s.check(); err != nil {
		return dist.ShiftedExponential{}, err
	}
	if len(s.Obs) < 2 {
		return dist.ShiftedExponential{}, fmt.Errorf("fit: shifted-exponential fit needs >= 2 exact observations")
	}
	shift, excess := stat.Min(s.Obs), 0.0
	for _, c := range s.Cens {
		excess += math.Max(c-shift, 0)
	}
	m := (sum(s.Obs) + excess) / float64(len(s.Obs))
	if m <= shift {
		return dist.ShiftedExponential{}, fmt.Errorf("fit: degenerate sample for shifted-exponential fit")
	}
	return dist.NewShiftedExponential(shift, m), nil
}

// Uniform returns the MLE uniform fit on [min, max] of the sample. A
// bound beyond the largest observation would have zero survival under
// it, so a sample with censored observations is refused.
func Uniform(s Sample) (dist.Uniform, error) {
	if err := s.check(); err != nil {
		return dist.Uniform{}, err
	}
	if len(s.Cens) > 0 {
		return dist.Uniform{}, fmt.Errorf("fit: uniform fit takes no censored observations, got %d", len(s.Cens))
	}
	lo, hi := stat.Min(s.Obs), stat.Max(s.Obs)
	if !(lo < hi) {
		return dist.Uniform{}, fmt.Errorf("fit: uniform fit needs spread data")
	}
	return dist.NewUniform(lo, hi), nil
}

// Pareto returns the censored MLE Pareto fit: x_m is the smallest exact
// observation and
//
//	alpha = n_obs / (Σ_obs log(x/x_m) + Σ_cens log(max(c, x_m)/x_m)).
//
// Censored values below x_m carry no information (survival is 1 there).
func Pareto(s Sample) (dist.Pareto, error) {
	if err := s.check(); err != nil {
		return dist.Pareto{}, err
	}
	if len(s.Obs) < 2 {
		return dist.Pareto{}, fmt.Errorf("fit: Pareto fit needs >= 2 exact observations")
	}
	xm := stat.Min(s.Obs)
	var t float64
	for _, x := range s.Obs {
		t += math.Log(x / xm)
	}
	for _, c := range s.Cens {
		if c > xm {
			t += math.Log(c / xm)
		}
	}
	if !(t > 0) {
		return dist.Pareto{}, fmt.Errorf("fit: degenerate sample for Pareto fit")
	}
	return dist.Pareto{Xm: xm, Alpha: float64(len(s.Obs)) / t}, nil
}

// Gamma returns the censored MLE gamma fit: the uncensored-part MLE (or
// a moment estimate) seeds a Nelder–Mead maximization of the censored
// log-likelihood over (log shape, log rate).
func Gamma(s Sample) (dist.Gamma, error) {
	if err := s.check(); err != nil {
		return dist.Gamma{}, err
	}
	if len(s.Obs) < 2 {
		return dist.Gamma{}, fmt.Errorf("fit: gamma fit needs >= 2 exact observations")
	}
	if len(s.Cens) == 0 {
		// Uncensored: the Newton MLE is already optimal.
		var sumLog float64
		for _, x := range s.Obs {
			sumLog += math.Log(x)
		}
		if g, err := gammaMLE(float64(len(s.Obs)), sum(s.Obs), sumLog); err == nil {
			return g, nil
		}
	}
	g, _, err := censoredGamma(s)
	return g, err
}

// gammaMLE returns the uncensored gamma MLE from the family's
// sufficient statistics (count, Σ x, Σ ln x) — the form a Stats holds
// them in, so an uncensored sketch fit reproduces the raw one exactly.
// With s = log(mean) − mean(ln x), Newton iteration on the shape
// equation log(k) − ψ(k) = s, started from the standard Choi–Wette
// approximation; the rate follows from the mean.
func gammaMLE(n, sumX, sumLog float64) (dist.Gamma, error) {
	if n < 2 {
		return dist.Gamma{}, fmt.Errorf("fit: gamma fit needs >= 2 exact observations")
	}
	mean := sumX / n
	s := math.Log(mean) - sumLog/n
	if !(s > 0) {
		return dist.Gamma{}, fmt.Errorf("fit: degenerate sample for gamma fit")
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
		return dist.Gamma{}, fmt.Errorf("fit: gamma shape iteration diverged")
	}
	return dist.Gamma{K: k, Rate: k / mean}, nil
}

// gammaInit returns a moment-based (shape, rate) starting point.
func gammaInit(obs []float64) (k, rate float64) {
	m := stat.Mean(obs)
	v := stat.Var(obs)
	if !(m > 0) {
		return 1, 1
	}
	if !(v > 0) {
		return 1, 1 / m
	}
	k = math.Min(math.Max(m*m/v, 0.05), 1e4)
	return k, k / m
}

// gammaExactLogLik returns Σ log f(x) under g over exact observations
// known by their count, Σ x and Σ ln x, the family's sufficient
// statistics: n·(k ln r − lnΓ(k)) + (k−1)·Σ ln x − r·Σ x. (LogLik is −Inf
// where one density underflows; score rejects such a law all the same.)
func gammaExactLogLik(g dist.Gamma, n, sumX, sumLog float64) float64 {
	lg, _ := math.Lgamma(g.K)
	return n*(g.K*math.Log(g.Rate)-lg) + (g.K-1)*sumLog - g.Rate*sumX
}

// gammaLik is the censored gamma likelihood of one sample: the exact
// observations by their count, Σ x and Σ ln x, the bounds by value and
// log. An evaluation costs O(bounds): only their survival terms
// ln Q(k, r·c) have no closed form, and specfn.GammaLogQSum sums them
// from the logs.
type gammaLik struct {
	n, sumX, sumLog float64
	cens, lnc       []float64
}

// gammaAt maps a simplex point (ln k, ln r) to its law.
func gammaAt(th []float64) dist.Gamma { return dist.Gamma{K: clampExp(th[0]), Rate: clampExp(th[1])} }

// nll is the negative log-likelihood at th.
func (l *gammaLik) nll(th []float64) float64 {
	g := gammaAt(th)
	return -(gammaExactLogLik(g, l.n, l.sumX, l.sumLog) + specfn.GammaLogQSum(g.K, g.Rate, l.cens, l.lnc))
}

// gammaSearch fills l's exact part from obs and returns the censored
// gamma search from the moment start, not yet run. l's bounds must be in
// place whenever it runs.
func gammaSearch(obs []float64, l *gammaLik) *simplex {
	k0, rate0 := gammaInit(obs)
	l.n, l.sumX, l.sumLog = float64(len(obs)), sum(obs), 0
	for _, x := range obs {
		l.sumLog += math.Log(x)
	}
	return newSimplex(l.nll, []float64{math.Log(k0), math.Log(rate0)}, 0.3, 400)
}

// censoredGamma maximizes the censored gamma likelihood from the moment
// start and returns the maximizer with its log-likelihood.
func censoredGamma(s Sample) (dist.Gamma, float64, error) {
	l := &gammaLik{cens: s.Cens, lnc: make([]float64, len(s.Cens))}
	for i, c := range s.Cens {
		l.lnc[i] = math.Log(c)
	}
	theta, nll := gammaSearch(s.Obs, l).run(nmTol)
	if math.IsInf(nll, 1) {
		return dist.Gamma{}, 0, fmt.Errorf("fit: censored gamma fit did not converge")
	}
	return gammaAt(theta), -nll, nil
}

// ShiftedGamma returns the censored MLE three-parameter gamma fit
// (shift, shape, rate) by profiling the shift: candidate shifts scan
// [0, min obs) — coarsely, then refined around the best candidate —
// and each candidate's (shape, rate) comes from the censored gamma MLE
// of the shifted residuals. This mirrors the paper's testbed pipeline,
// which fitted shifted-gamma laws to transfer-time histograms.
//
// The candidates of each pass are tightened together (see tighten), so
// only those still able to win are solved to full precision; the fit is
// the one solving every candidate in full would return, bit for bit.
func ShiftedGamma(s Sample) (dist.ShiftedGamma, error) {
	if err := s.check(); err != nil {
		return dist.ShiftedGamma{}, err
	}
	if len(s.Obs) < 4 {
		return dist.ShiftedGamma{}, fmt.Errorf("fit: shifted-gamma fit needs >= 4 exact observations")
	}
	lo := stat.Min(s.Obs)
	sc := &shiftScan{s: s, obs: make([]float64, 0, len(s.Obs)),
		cens: make([]float64, 0, len(s.Cens)), lnc: make([]float64, 0, len(s.Cens))}

	// Coarse profile over [0, lo), then refine one coarse cell around
	// the winner. The displacement MLE is typically near the sample
	// minimum but the profile can be multimodal, so scan, don't descend.
	const coarse = 24
	var cands []*shiftCand
	for i := 0; i <= coarse; i++ {
		cands = sc.start(cands, lo*(float64(i)/float64(coarse+1)))
	}
	best := sc.tighten(cands)
	if best == nil {
		return dist.ShiftedGamma{}, fmt.Errorf("fit: no admissible shifted-gamma fit")
	}
	// The coarse winner leads the refined shifts, so a tie keeps it.
	center, step := best.shift, lo/float64(coarse+1)
	cands = []*shiftCand{best}
	for i := -4; i <= 4; i++ {
		// i == 0 is the coarse winner itself, already fitted.
		if sh := center + float64(i)*step/5; i != 0 && sh >= 0 && sh < lo {
			cands = sc.start(cands, sh)
		}
	}
	best = sc.tighten(cands)
	return dist.ShiftedGamma{Shift: best.shift, G: gammaAt(best.nm.pts[0])}, nil
}

// Shift-scan schedule: every candidate of a pass is run to scanTols[0]
// as it starts, then all survivors to each later tolerance in turn.
// After the round at tolerance τ, a candidate whose log-likelihood is
// more than max(1, scanMargin·τ·(1+|ℓ_best|)) below the round's best
// ℓ_best is dropped. The fit is the full scan's as long as the candidate
// it keeps is never dropped, and that is measured, not proved: on the
// tests' differential corpus the kept candidates trailed their round's
// best by at most 21·τ·(1+|ℓ_best|), so 200 leaves 9× headroom
// (TestShiftedGammaMatchesReference requires 2×).
var scanTols = [...]float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-8, nmTol}

const scanMargin = 200

// shiftScan is one ShiftedGamma call's candidate pool. A candidate keeps
// only its shift, exact-part sums and search state; its residual bounds
// and their logs are rebuilt into the one shared buffer whenever it runs.
type shiftScan struct {
	s              Sample
	obs, cens, lnc []float64
}

// shiftCand is one candidate shift's censored gamma search, with its
// log-likelihood after each round it has run.
type shiftCand struct {
	shift  float64
	lik    gammaLik
	nm     *simplex
	at     [len(scanTols)]float64
	rounds int
}

// bounds rebuilds the residual bounds above shift and their logs.
// Bounds at or below the shift carry no information: S(c) = 1.
func (sc *shiftScan) bounds(shift float64) ([]float64, []float64) {
	sc.cens, sc.lnc = sc.cens[:0], sc.lnc[:0]
	for _, c := range sc.s.Cens {
		if r := c - shift; r > 0 {
			sc.cens = append(sc.cens, r)
			sc.lnc = append(sc.lnc, math.Log(r))
		}
	}
	return sc.cens, sc.lnc
}

// start appends the candidate at shift, run to the first tolerance, to
// cands. A shift at or past an exact observation is no candidate.
func (sc *shiftScan) start(cands []*shiftCand, shift float64) []*shiftCand {
	sc.obs = sc.obs[:0]
	for _, x := range sc.s.Obs {
		r := x - shift
		if r <= 0 {
			return cands
		}
		sc.obs = append(sc.obs, r)
	}
	c := &shiftCand{shift: shift}
	c.lik.cens, c.lik.lnc = sc.bounds(shift)
	c.nm = gammaSearch(sc.obs, &c.lik)
	_, nll := c.nm.run(scanTols[0])
	c.at[0], c.rounds = -nll, 1
	return append(cands, c)
}

// tighten runs cands through the rest of the schedule, dropping after
// each round the candidates too far behind to win (see scanTols), and
// returns the winner: the first, in cands order, of the largest
// finite-objective log-likelihoods at full precision — the candidate a
// scan solving each in full and keeping a strictly better one would
// keep — or nil. Each round compares the candidates' values after that
// round, so a candidate settled in an earlier pass competes with what it
// had at that tolerance.
func (sc *shiftScan) tighten(cands []*shiftCand) (win *shiftCand) {
	for r, tol := range scanTols {
		win = nil
		best := math.Inf(-1)
		for _, c := range cands {
			if c.rounds == r {
				if !c.nm.settled(tol) {
					c.lik.cens, c.lik.lnc = sc.bounds(c.shift)
					c.nm.run(tol)
				}
				c.at[r], c.rounds = -c.nm.vals[0], r+1
			}
			if c.at[r] > best {
				win, best = c, c.at[r]
			}
		}
		floor := best - math.Max(1, scanMargin*tol*(1+math.Abs(best)))
		kept := cands[:0]
		for _, c := range cands {
			if !(c.at[r] < floor) {
				kept = append(kept, c)
			}
		}
		cands = kept
	}
	return win
}

// LogNormal returns the censored MLE lognormal fit: log-moment init,
// Nelder–Mead over (mu, log sigma). As for the gamma, the exact part is
// closed-form in (n, m = mean ln x, S = Σ (ln x − m)²):
// Σ log f(x) = −(S + n·(m−mu)²)/(2 sigma²) − n·m − n·ln(sigma·√(2π)).
func LogNormal(s Sample) (dist.LogNormal, error) {
	if err := s.check(); err != nil {
		return dist.LogNormal{}, err
	}
	if len(s.Obs) < 2 {
		return dist.LogNormal{}, fmt.Errorf("fit: lognormal fit needs >= 2 exact observations")
	}
	logs := make([]float64, len(s.Obs))
	for i, x := range s.Obs {
		logs[i] = math.Log(x)
	}
	n, mu0, variance := float64(len(logs)), stat.Mean(logs), stat.Var(logs)
	sigma0 := math.Sqrt(variance)
	if !(sigma0 > 0.05) {
		sigma0 = 0.05
	}
	at := func(th []float64) dist.LogNormal { return dist.LogNormal{Mu: th[0], Sigma: clampExp(th[1])} }
	cens := Sample{Cens: s.Cens}
	theta, nll := newSimplex(func(th []float64) float64 {
		d := at(th)
		return (variance*(n-1)+n*(mu0-d.Mu)*(mu0-d.Mu))/(2*d.Sigma*d.Sigma) + n*mu0 +
			n*math.Log(d.Sigma*math.Sqrt(2*math.Pi)) - LogLik(d, cens)
	}, []float64{mu0, math.Log(sigma0)}, 0.3, 400).run(nmTol)
	if math.IsInf(nll, 1) {
		return dist.LogNormal{}, fmt.Errorf("fit: censored lognormal fit did not converge")
	}
	return at(theta), nil
}

// HyperExp returns the censored MLE balanced two-phase hyperexponential
// fit, parameterized — like the modelspec family — by (mean, scv) with
// scv > 1: moment init, Nelder–Mead over (log mean, log(scv−1)).
func HyperExp(s Sample) (dist.HyperExponential, error) {
	if err := s.check(); err != nil {
		return dist.HyperExponential{}, err
	}
	if len(s.Obs) < 4 {
		return dist.HyperExponential{}, fmt.Errorf("fit: hyperexponential fit needs >= 4 exact observations")
	}
	m0 := stat.Mean(s.Obs)
	scv0 := stat.Var(s.Obs) / (m0 * m0)
	if !(scv0 > 1.2) {
		scv0 = 1.2
	}
	if scv0 > 500 {
		scv0 = 500
	}
	build := func(th []float64) dist.HyperExponential {
		mean := clampExp(th[0])
		scv := 1 + clampExp(th[1])
		if scv > 1e3 {
			scv = 1e3
		}
		return dist.NewHyperExponential2(mean, scv)
	}
	theta, nll := newSimplex(func(th []float64) float64 {
		return -LogLik(build(th), s)
	}, []float64{math.Log(m0), math.Log(scv0 - 1)}, 0.3, 400).run(nmTol)
	if math.IsInf(nll, 1) {
		return dist.HyperExponential{}, fmt.Errorf("fit: censored hyperexponential fit did not converge")
	}
	return build(theta), nil
}

// clampExp exponentiates with overflow/underflow clamping so simplex
// excursions cannot produce zero or infinite parameters.
func clampExp(x float64) float64 { return math.Exp(math.Max(-300, math.Min(300, x))) }

// nmTol is the relative spread at which a one-shot search stops.
const nmTol = 1e-10

// evalHook, when set, is handed the number of objective evaluations each
// run made. It is nil outside the tests.
var evalHook func(int)

// simplex is a Nelder–Mead minimization of f in progress, with the
// standard moves (reflect, expand, contract, shrink). run continues one
// deterministic path, so a search stopped at a loose tolerance and run
// again at a tight one visits exactly the vertices a single run at the
// tight one would have. Its d+1 vertices, the centroid and the three
// trial points share one allocation: an accepted trial point swaps
// buffers with the vertex it replaces.
type simplex struct {
	f                   func([]float64) float64
	pts                 [][]float64
	vals                []float64
	c, refl, exp, contr []float64
	it, iters, evals    int
}

// newSimplex returns the search from x0, its initial simplex sized by
// scale, capped at iters iterations. Nothing is evaluated until run.
func newSimplex(f func([]float64) float64, x0 []float64, scale float64, iters int) *simplex {
	d := len(x0)
	buf := make([]float64, (d+5)*d)
	vec := func(i int) []float64 { return buf[i*d : (i+1)*d : (i+1)*d] }
	s := &simplex{f: f, pts: make([][]float64, d+1), vals: make([]float64, d+1), iters: iters,
		c: vec(d + 1), refl: vec(d + 2), exp: vec(d + 3), contr: vec(d + 4)}
	for i := range s.pts {
		s.pts[i] = vec(i)
		if copy(s.pts[i], x0); i > 0 {
			s.pts[i][i-1] += scale
		}
	}
	return s
}

func (s *simplex) eval(p []float64) float64 {
	s.evals++
	return s.f(p)
}

// settled orders the vertices best first and reports whether the search
// is done at tol: its iterations are spent or the simplex has collapsed
// to a relative spread below tol. Insertion sort: d+1 is tiny.
func (s *simplex) settled(tol float64) bool {
	d := len(s.vals) - 1
	for i := 1; i <= d; i++ {
		for j := i; j > 0 && s.vals[j] < s.vals[j-1]; j-- {
			s.vals[j], s.vals[j-1] = s.vals[j-1], s.vals[j]
			s.pts[j], s.pts[j-1] = s.pts[j-1], s.pts[j]
		}
	}
	return s.it >= s.iters || s.vals[d]-s.vals[0] < tol*(1+math.Abs(s.vals[0]))
}

// run continues the search until it is settled at tol and returns the
// best vertex with f there.
func (s *simplex) run(tol float64) ([]float64, float64) {
	const alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
	d, pts, vals, c, from := len(s.vals)-1, s.pts, s.vals, s.c, s.evals
	if from == 0 {
		for i, p := range pts {
			vals[i] = s.eval(p)
		}
	}
	at := func(p []float64, t float64) []float64 {
		for j := 0; j < d; j++ {
			p[j] = c[j] + t*(c[j]-pts[d][j])
		}
		return p
	}
	for ; !s.settled(tol); s.it++ {
		// Centroid of all but the worst.
		clear(c)
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				c[j] += pts[i][j] / float64(d)
			}
		}
		fr := s.eval(at(s.refl, alpha))
		switch {
		case fr < vals[0]:
			if fe := s.eval(at(s.exp, gamma)); fe < fr {
				pts[d], s.exp, vals[d] = s.exp, pts[d], fe
			} else {
				pts[d], s.refl, vals[d] = s.refl, pts[d], fr
			}
		case fr < vals[d-1]:
			pts[d], s.refl, vals[d] = s.refl, pts[d], fr
		default:
			if fc := s.eval(at(s.contr, -rho)); fc < vals[d] {
				pts[d], s.contr, vals[d] = s.contr, pts[d], fc
			} else {
				for i := 1; i <= d; i++ {
					for j := 0; j < d; j++ {
						pts[i][j] = pts[0][j] + sigma*(pts[i][j]-pts[0][j])
					}
					vals[i] = s.eval(pts[i])
				}
			}
		}
	}
	if evalHook != nil {
		evalHook(s.evals - from)
	}
	return pts[0], vals[0]
}
