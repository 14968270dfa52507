package fit

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"dtr/dist"
	"dtr/internal/rngutil"
	"dtr/internal/testutil"
)

// synth draws n samples from d and right-censors each at an
// exponential censoring horizon with the given mean, tuned so roughly
// censFrac of the sample ends up censored. It returns the censored
// sample; the censoring mechanism is independent of the value
// (non-informative), matching how capture-end truncation behaves.
func synth(d dist.Dist, n int, censMean float64, r *rand.Rand) Sample {
	var s Sample
	for i := 0; i < n; i++ {
		x := d.Sample(r)
		c := dist.NewExponential(censMean).Sample(r)
		if censMean > 0 && c < x {
			s.Cens = append(s.Cens, c)
		} else {
			s.Obs = append(s.Obs, x)
		}
	}
	return s
}

// requireCensored fails the test when the synthetic sample does not hit
// the issue's >= 30% censoring floor.
func requireCensored(t *testing.T, s Sample, floor float64) {
	t.Helper()
	if f := s.CensoredFrac(); f < floor {
		t.Fatalf("censored fraction %.3f below required %.2f", f, floor)
	}
}

// draw returns n uncensored variates of d from a deterministic stream —
// the samples internal/stat's fitter tests recovered their laws from.
func draw(d dist.Dist, n, stream int) []float64 {
	r := rngutil.Stream(2026, stream)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.Sample(r)
	}
	return xs
}

func relErr(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }

// TestExponentialGolden recovers the paper's server-1 failure law
// (exponential, mean 300) from 10^4 samples with >= 30% censoring.
// Tolerance: 3% relative error on the mean. Uncensored, 4·10^4 draws of
// a mean-2.5 law recover the mean within 0.03.
func TestExponentialGolden(t *testing.T) {
	r := rngutil.Stream(101, 0)
	s := synth(dist.NewExponential(300), 10_000, 450, r)
	requireCensored(t, s, 0.30)
	d, err := Exponential(s)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(d.Mean(), 300); e > 0.03 {
		t.Errorf("mean = %.2f, want 300 within 3%% (err %.3f)", d.Mean(), e)
	}
	t.Run("uncensored", func(t *testing.T) {
		d, err := Exponential(Sample{Obs: draw(dist.NewExponential(2.5), 40000, 1)})
		if err != nil {
			t.Fatal(err)
		}
		testutil.Almost(t, d.Mean(), 2.5, 0.03, "exponential mean recovery")
	})
}

// TestParetoGolden recovers the paper's server-0 service law
// (Pareto alpha 2.614, mean 4.858) from 10^4 samples with >= 30%
// censoring. Tolerances: 3% on alpha, 5% on the mean (the mean of a
// heavy-tailed law converges more slowly than its shape).
func TestParetoGolden(t *testing.T) {
	r := rngutil.Stream(102, 0)
	want := dist.NewPareto(2.614, 4.858)
	s := synth(want, 10_000, 6, r)
	requireCensored(t, s, 0.30)
	d, err := Pareto(s)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(d.Alpha, 2.614); e > 0.03 {
		t.Errorf("alpha = %.3f, want 2.614 within 3%% (err %.3f)", d.Alpha, e)
	}
	if e := relErr(d.Mean(), 4.858); e > 0.05 {
		t.Errorf("mean = %.3f, want 4.858 within 5%% (err %.3f)", d.Mean(), e)
	}
	t.Run("uncensored", func(t *testing.T) {
		p, err := Pareto(Sample{Obs: draw(dist.Pareto{Xm: 1.2, Alpha: 2.5}, 40000, 2)})
		if err != nil {
			t.Fatal(err)
		}
		testutil.Almost(t, p.Xm, 1.2, 0.01, "pareto xm")
		testutil.Almost(t, p.Alpha, 2.5, 0.05, "pareto alpha")
		if _, err := Pareto(Sample{Obs: []float64{1}}); err == nil {
			t.Error("single observation should fail")
		}
		if _, err := Pareto(Sample{Obs: []float64{0, 1}}); err == nil {
			t.Error("zero min should fail")
		}
	})
}

// TestShiftedGammaGolden recovers the paper's transfer law (per-task
// mean 1.207, shape 2, shiftFrac 0.55) from 10^4 samples with >= 30%
// censoring. Tolerances: 5% on the mean and shift, 15% on the shape —
// shape and rate trade off along a likelihood ridge, so the shape is
// the loosest-identified parameter.
func TestShiftedGammaGolden(t *testing.T) {
	r := rngutil.Stream(103, 0)
	want := dist.NewShiftedGammaMean(0.55*1.207, 2, 1.207)
	s := synth(want, 10_000, 1.8, r)
	requireCensored(t, s, 0.30)
	d, err := ShiftedGamma(s)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(d.Mean(), 1.207); e > 0.05 {
		t.Errorf("mean = %.4f, want 1.207 within 5%% (err %.3f)", d.Mean(), e)
	}
	if e := relErr(d.Shift, 0.55*1.207); e > 0.05 {
		t.Errorf("shift = %.4f, want %.4f within 5%% (err %.3f)", d.Shift, 0.55*1.207, e)
	}
	if e := relErr(d.G.K, 2); e > 0.15 {
		t.Errorf("shape = %.3f, want 2 within 15%% (err %.3f)", d.G.K, e)
	}
	t.Run("uncensored", func(t *testing.T) {
		truth := dist.NewShiftedGamma(0.8, 2.04, 3.16) // like the paper's transfer fits
		sg, err := ShiftedGamma(Sample{Obs: draw(truth, 30000, 6)})
		if err != nil {
			t.Fatal(err)
		}
		testutil.Almost(t, sg.Shift, 0.8, 0.1, "shifted gamma shift")
		testutil.Almost(t, sg.Mean(), truth.Mean(), 0.05, "shifted gamma mean")
	})
}

// TestGammaGolden recovers a gamma law (shape 2, mean 4) from 10^4
// samples with >= 30% censoring. Tolerances: 3% on the mean, 5% on the
// shape.
func TestGammaGolden(t *testing.T) {
	r := rngutil.Stream(104, 0)
	s := synth(dist.NewGamma(2, 4), 10_000, 6, r)
	requireCensored(t, s, 0.30)
	d, err := Gamma(s)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(d.Mean(), 4); e > 0.03 {
		t.Errorf("mean = %.3f, want 4 within 3%% (err %.3f)", d.Mean(), e)
	}
	if e := relErr(d.K, 2); e > 0.05 {
		t.Errorf("shape = %.3f, want 2 within 5%% (err %.3f)", d.K, e)
	}
	t.Run("uncensored", func(t *testing.T) {
		g, err := Gamma(Sample{Obs: draw(dist.NewGamma(2.0, 4.0), 60000, 5)})
		if err != nil {
			t.Fatal(err)
		}
		testutil.Almost(t, g.K, 2.0, 0.05, "gamma shape")
		testutil.Almost(t, g.Mean(), 4.0, 0.03, "gamma mean")
	})
}

// TestLogNormalGolden recovers a lognormal law (sigma 1, mean 5) from
// 10^4 samples with >= 30% censoring. Tolerances: 5% on mu and sigma.
func TestLogNormalGolden(t *testing.T) {
	r := rngutil.Stream(105, 0)
	want := dist.NewLogNormal(1, 5)
	s := synth(want, 10_000, 7, r)
	requireCensored(t, s, 0.30)
	d, err := LogNormal(s)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(d.Mu, want.Mu); e > 0.05 {
		t.Errorf("mu = %.4f, want %.4f within 5%% (err %.3f)", d.Mu, want.Mu, e)
	}
	if e := relErr(d.Sigma, 1); e > 0.05 {
		t.Errorf("sigma = %.4f, want 1 within 5%% (err %.3f)", d.Sigma, e)
	}
}

// TestHyperExpGolden recovers a balanced two-phase hyperexponential
// (mean 3, scv 4) from 10^4 samples with >= 30% censoring. Tolerances:
// 5% on the mean, 15% on the scv (a fourth-moment-sensitive quantity).
func TestHyperExpGolden(t *testing.T) {
	r := rngutil.Stream(106, 0)
	want := dist.NewHyperExponential2(3, 4)
	s := synth(want, 10_000, 4.5, r)
	requireCensored(t, s, 0.30)
	d, err := HyperExp(s)
	if err != nil {
		t.Fatal(err)
	}
	m := d.Mean()
	if e := relErr(m, 3); e > 0.05 {
		t.Errorf("mean = %.3f, want 3 within 5%% (err %.3f)", m, e)
	}
	scv := d.Var() / (m * m)
	if e := relErr(scv, 4); e > 0.15 {
		t.Errorf("scv = %.3f, want 4 within 15%% (err %.3f)", scv, e)
	}
}

// TestUniformGolden recovers a uniform law's support from 2·10^4 draws
// within 0.01, and refuses a sample it cannot fit: no spread, or any
// censored observation (a bound past the largest one has zero survival
// under the fit).
func TestUniformGolden(t *testing.T) {
	xs := draw(dist.NewUniform(0.5, 1.5), 20000, 3)
	u, err := Uniform(Sample{Obs: xs})
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, u.A, 0.5, 0.01, "uniform lo")
	testutil.Almost(t, u.B, 1.5, 0.01, "uniform hi")
	if _, err := Uniform(Sample{Obs: []float64{2, 2}}); err == nil {
		t.Error("zero-spread sample should fail")
	}
	if _, err := Uniform(Sample{Obs: xs, Cens: []float64{1}}); err == nil {
		t.Error("censored sample should fail")
	}
	if _, err := Fit(FamilyUniform, Sample{Obs: xs}); err != nil {
		t.Errorf("Fit(uniform): %v", err)
	}
}

// TestShiftedExponentialGolden recovers the service law of the
// replication literature (shift 1, mean 3) from 4·10^4 draws at 0%, 15%
// and 40% censoring, shift within 0.01 and mean within 0.12, and checks
// the estimator is events over exposure above the shift: the exponential
// MLE of the residuals. The smallest observation's own residual is zero,
// which Exponential refuses, so the residual sample has one event fewer
// and the rates agree up to that count.
func TestShiftedExponentialGolden(t *testing.T) {
	truth := dist.NewShiftedExponential(1, 3)
	for i, cens := range []float64{0, 0.15, 0.40} {
		t.Run(fmt.Sprintf("c%.0f", 100*cens), func(t *testing.T) {
			s := Sample{Obs: draw(truth, 40000, 4)}
			if cens > 0 {
				s = pinnedCase{law: truth, n: 40000, cens: cens}.draw(100 + i)
				if f := s.CensoredFrac(); math.Abs(f-cens) > 0.02 {
					t.Fatalf("censored fraction %.3f, want %.2f", f, cens)
				}
			}
			d, err := ShiftedExponential(s)
			if err != nil {
				t.Fatal(err)
			}
			testutil.Almost(t, d.Shift, 1, 0.01, "shift")
			testutil.Almost(t, d.Mean(), 3, 0.03, "mean")

			var res Sample
			for _, x := range s.Obs {
				if x > d.Shift {
					res.Obs = append(res.Obs, x-d.Shift)
				}
			}
			for _, c := range s.Cens {
				if c > d.Shift {
					res.Cens = append(res.Cens, c-d.Shift)
				}
			}
			if len(res.Obs) != len(s.Obs)-1 {
				t.Fatalf("%d residuals above the shift of %d observations", len(res.Obs), len(s.Obs))
			}
			e, err := Exponential(res)
			if err != nil {
				t.Fatal(err)
			}
			want := e.Rate * float64(len(s.Obs)) / float64(len(res.Obs))
			if relErr(d.Rate, want) > 1e-12 {
				t.Errorf("rate %.17g, events over exposure above the shift %.17g", d.Rate, want)
			}
			if r, err := s.Fit(FamilyShiftedExp); err != nil || r.Params != 2 || r.Dist != dist.Dist(d) {
				t.Errorf("Fit(shifted-exponential) = %+v, %v", r, err)
			}
		})
	}
	if _, err := ShiftedExponential(Sample{Obs: []float64{2, 2}}); err == nil {
		t.Error("zero-spread sample should fail")
	}
}

// TestLogLikOrdering: the generating law out-scores a wrong one, and
// data outside the support gives −Inf.
func TestLogLikOrdering(t *testing.T) {
	truth := dist.NewGamma(3, 2)
	s := Sample{Obs: draw(truth, 5000, 7)}
	if llTrue, llWrong := LogLik(truth, s), LogLik(dist.NewGamma(3, 10), s); llTrue <= llWrong {
		t.Fatalf("true model should have higher likelihood: %g <= %g", llTrue, llWrong)
	}
	if !math.IsInf(LogLik(dist.NewUniform(0, 1), Sample{Obs: []float64{2}}), -1) {
		t.Fatal("out-of-support data should give -Inf log likelihood")
	}
}

// TestRankTSEModelSelection reproduces the paper's pipeline: draw from a
// Pareto (the testbed's service law) and from a shifted gamma (the
// testbed's transfer law) and verify the total-squared-error criterion
// picks the right family out of the candidate set.
func TestRankTSEModelSelection(t *testing.T) {
	pareto := dist.Pareto{Xm: 3.0, Alpha: 2.614}  // mean 4.858, as the paper's server 1
	sgamma := dist.NewShiftedGamma(0.7, 3.0, 5.9) // mean ~1.21, like X12
	for _, tc := range []struct {
		xs   []float64
		want []string
	}{
		{draw(pareto, 20000, 8), []string{"Pareto"}},
		{draw(sgamma, 20000, 9), []string{"Shifted-Gamma", "Gamma"}},
	} {
		fits := RankTSE(tc.xs, PaperFamilies(), 60)
		if len(fits) == 0 {
			t.Fatal("no fits")
		}
		if !slices.Contains(tc.want, fits[0].Name) {
			for _, f := range fits {
				t.Logf("%-20s TSE=%.5g KS=%.4f", f.Name, f.TSE, f.KS)
			}
			t.Errorf("TSE selection picked %s, want one of %v", fits[0].Name, tc.want)
		}
	}
}

func TestRankTSESorted(t *testing.T) {
	fits := RankTSE(draw(dist.NewExponential(1), 5000, 10), PaperFamilies(), 40)
	if len(fits) != 6 {
		t.Fatalf("%d fits, want 6", len(fits))
	}
	for i := 1; i < len(fits); i++ {
		if fits[i-1].TSE > fits[i].TSE {
			t.Fatal("fits not sorted by TSE")
		}
	}
}

// TestRankTSEAIC: AIC is 2k − 2lnL and must be finite for admissible
// fits; on exponential data the exponential's AIC should beat the
// heavier-parameterized families despite similar likelihoods.
func TestRankTSEAIC(t *testing.T) {
	fits := RankTSE(draw(dist.NewExponential(2), 20000, 21), PaperFamilies(), 50)
	byName := map[string]Ranked{}
	for _, f := range fits {
		byName[f.Name] = f
		if math.IsNaN(f.AIC) {
			t.Fatalf("NaN AIC for %s", f.Name)
		}
		if f.Params < 1 || f.Params > 3 {
			t.Fatalf("odd parameter count for %s: %d", f.Name, f.Params)
		}
		// AIC is consistent with the likelihood it is built from.
		if want := 2*float64(f.Params) - 2*f.LogLik; math.Abs(f.AIC-want) > 1e-9 {
			t.Fatalf("%s AIC %.3f != 2k−2lnL %.3f", f.Name, f.AIC, want)
		}
	}
	exp, ok1 := byName["Exponential"]
	sg, ok2 := byName["Shifted-Gamma"]
	if !ok1 || !ok2 {
		t.Fatal("families missing from fit set")
	}
	// On exponential data the richer family can pick up a few nats of
	// sampling noise, but not more than that: the AICs must be close.
	if exp.AIC > sg.AIC+10 {
		t.Fatalf("exponential AIC (%.1f) loses badly to shifted gamma (%.1f) on exponential data",
			exp.AIC, sg.AIC)
	}
}

// TestCensoringMatters checks the censored estimators actually use the
// censored mass: dropping the censored observations must bias the
// exponential mean low by more than the full estimator's error.
func TestCensoringMatters(t *testing.T) {
	r := rngutil.Stream(107, 0)
	s := synth(dist.NewExponential(100), 10_000, 150, r)
	requireCensored(t, s, 0.30)
	full, err := Exponential(s)
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := Exponential(Sample{Obs: s.Obs})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full.Mean()-100) >= math.Abs(dropped.Mean()-100) {
		t.Errorf("censored-aware mean %.2f not closer to 100 than censoring-blind %.2f", full.Mean(), dropped.Mean())
	}
	if dropped.Mean() > 0.9*100 {
		t.Errorf("dropping censored mass should bias the mean well below 100, got %.2f", dropped.Mean())
	}
}

// TestSelectPrefersTrueFamily checks model selection identifies the
// generating family for clearly-shaped samples.
func TestSelectPrefersTrueFamily(t *testing.T) {
	cases := []struct {
		name string
		d    dist.Dist
		cens float64
		want Family
	}{
		{"pareto", dist.NewPareto(2.614, 4.858), 6, FamilyPareto},
		{"exponential", dist.NewExponential(2), 3, FamilyExponential},
		{"shifted-gamma", dist.NewShiftedGammaMean(0.66, 2, 1.207), 1.8, FamilyShiftedGam},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rngutil.Stream(108, i)
			s := synth(tc.d, 10_000, tc.cens, r)
			requireCensored(t, s, 0.30)
			res, err := Select(s, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Family != tc.want {
				t.Errorf("selected %s (%s), want %s", res.Family, res.Dist, tc.want)
			}
		})
	}
}

// TestSpecForRoundTrip checks fitted laws survive the trip through
// modelspec: SpecFor output builds a distribution matching the fit.
func TestSpecForRoundTrip(t *testing.T) {
	dists := []dist.Dist{
		dist.Exponential{Rate: 1.0 / 300},
		dist.Gamma{K: 2.1, Rate: 0.5},
		dist.ShiftedGamma{Shift: 0.66, G: dist.Gamma{K: 2, Rate: 3.68}},
		dist.Pareto{Xm: 3, Alpha: 2.614},
		dist.LogNormal{Mu: 1.1, Sigma: 0.9},
		dist.NewHyperExponential2(3, 4),
	}
	for _, want := range dists {
		spec, err := SpecFor(want)
		if err != nil {
			t.Fatalf("SpecFor(%s): %v", want, err)
		}
		got, err := spec.Dist()
		if err != nil {
			t.Fatalf("rebuild %s: %v", want, err)
		}
		if relErr(got.Mean(), want.Mean()) > 1e-9 {
			t.Errorf("%s: rebuilt mean %.6g, want %.6g", want, got.Mean(), want.Mean())
		}
		if relErr(got.Quantile(0.9), want.Quantile(0.9)) > 1e-6 {
			t.Errorf("%s: rebuilt q90 %.6g, want %.6g", want, got.Quantile(0.9), want.Quantile(0.9))
		}
	}
}

// TestSpecForZeroShift checks the shiftFrac-zero default trap: a
// shifted gamma with (essentially) no shift must emit a plain gamma,
// not a shifted-gamma spec that the loader would re-read with the
// default shiftFrac 0.5.
func TestSpecForZeroShift(t *testing.T) {
	spec, err := SpecFor(dist.ShiftedGamma{Shift: 0, G: dist.Gamma{K: 2, Rate: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Type != "gamma" {
		t.Errorf("zero-shift shifted-gamma emitted as %q, want gamma", spec.Type)
	}
}

// TestSpecForHeavyPareto checks the inexpressible case: alpha <= 1 has
// no finite mean and must be rejected, not silently mangled.
func TestSpecForHeavyPareto(t *testing.T) {
	if _, err := SpecFor(dist.Pareto{Xm: 1, Alpha: 0.9}); err == nil {
		t.Fatal("SpecFor(alpha 0.9): want error")
	}
}

// TestFitRejectsBadSamples checks input validation.
func TestFitRejectsBadSamples(t *testing.T) {
	bad := []Sample{
		{},                      // empty
		{Obs: []float64{1, -2}}, // negative observation
		{Obs: []float64{1}, Cens: []float64{math.NaN()}}, // NaN bound
		{Cens: []float64{1, 2, 3}},                       // no exact observations
	}
	for _, s := range bad {
		if _, err := Exponential(s); err == nil {
			t.Errorf("Exponential(%+v): want error", s)
		}
	}
}
