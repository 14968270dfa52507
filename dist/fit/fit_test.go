package fit

import (
	"math"
	"math/rand/v2"
	"testing"

	"dtr/dist"
	"dtr/internal/rngutil"
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

func relErr(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }

// TestExponentialGolden recovers the paper's server-1 failure law
// (exponential, mean 300) from 10^4 samples with >= 30% censoring.
// Tolerance: 3% relative error on the mean.
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
