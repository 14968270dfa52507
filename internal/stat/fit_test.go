package stat

import (
	"math"
	"testing"

	"dtr/dist"
	"dtr/internal/rngutil"
	"dtr/internal/testutil"
)

// sampleN draws n variates from d with a deterministic stream.
func sampleN(d dist.Dist, n int, stream int) []float64 {
	r := rngutil.Stream(2026, stream)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.Sample(r)
	}
	return xs
}

func TestFitExponentialRecovers(t *testing.T) {
	truth := dist.NewExponential(2.5)
	got, err := FitExponential(sampleN(truth, 40000, 1))
	if err != nil {
		t.Fatal(err)
	}
	testutil.Almost(t, got.Mean(), 2.5, 0.03, "exponential mean recovery")
	if _, err := FitExponential([]float64{-1, -2}); err == nil {
		t.Fatal("negative data should fail")
	}
}

func TestFitParetoRecovers(t *testing.T) {
	truth := dist.Pareto{Xm: 1.2, Alpha: 2.5}
	got, err := FitPareto(sampleN(truth, 40000, 2))
	if err != nil {
		t.Fatal(err)
	}
	p := got.(dist.Pareto)
	testutil.Almost(t, p.Xm, 1.2, 0.01, "pareto xm")
	testutil.Almost(t, p.Alpha, 2.5, 0.05, "pareto alpha")
	if _, err := FitPareto([]float64{1}); err == nil {
		t.Fatal("single observation should fail")
	}
	if _, err := FitPareto([]float64{0, 1}); err == nil {
		t.Fatal("zero min should fail")
	}
}

func TestFitUniformRecovers(t *testing.T) {
	truth := dist.NewUniform(0.5, 1.5)
	got, err := FitUniform(sampleN(truth, 20000, 3))
	if err != nil {
		t.Fatal(err)
	}
	u := got.(dist.Uniform)
	testutil.Almost(t, u.A, 0.5, 0.01, "uniform lo")
	testutil.Almost(t, u.B, 1.5, 0.01, "uniform hi")
	if _, err := FitUniform([]float64{2, 2}); err == nil {
		t.Fatal("zero-spread sample should fail")
	}
}

func TestFitShiftedExponentialRecovers(t *testing.T) {
	truth := dist.NewShiftedExponential(1, 3)
	got, err := FitShiftedExponential(sampleN(truth, 40000, 4))
	if err != nil {
		t.Fatal(err)
	}
	se := got.(dist.ShiftedExponential)
	testutil.Almost(t, se.Shift, 1, 0.01, "shift")
	testutil.Almost(t, se.Mean(), 3, 0.03, "mean")
}

func TestFitGammaRecovers(t *testing.T) {
	truth := dist.NewGamma(2.0, 4.0) // k=2, mean 4
	got, err := FitGamma(sampleN(truth, 60000, 5))
	if err != nil {
		t.Fatal(err)
	}
	g := got.(dist.Gamma)
	testutil.Almost(t, g.K, 2.0, 0.05, "gamma shape")
	testutil.Almost(t, g.Mean(), 4.0, 0.03, "gamma mean")
}

func TestFitShiftedGammaRecovers(t *testing.T) {
	truth := dist.NewShiftedGamma(0.8, 2.04, 3.16) // like the paper's transfer fits
	got, err := FitShiftedGamma(sampleN(truth, 30000, 6))
	if err != nil {
		t.Fatal(err)
	}
	sg := got.(dist.ShiftedGamma)
	testutil.Almost(t, sg.Shift, 0.8, 0.1, "shifted gamma shift")
	testutil.Almost(t, sg.Mean(), truth.Mean(), 0.05, "shifted gamma mean")
}

func TestLogLikelihoodOrdering(t *testing.T) {
	truth := dist.NewGamma(3, 2)
	xs := sampleN(truth, 5000, 7)
	llTrue := LogLikelihood(truth, xs)
	llWrong := LogLikelihood(dist.NewGamma(3, 10), xs)
	if llTrue <= llWrong {
		t.Fatalf("true model should have higher likelihood: %g <= %g", llTrue, llWrong)
	}
	// Data outside the support gives -Inf.
	if !math.IsInf(LogLikelihood(dist.NewUniform(0, 1), []float64{2}), -1) {
		t.Fatal("out-of-support data should give -Inf log likelihood")
	}
}

// TestFitAllModelSelection reproduces the paper's pipeline: draw from a
// Pareto (the testbed's service law) and from a shifted gamma (the
// testbed's transfer law) and verify the total-squared-error criterion
// picks the right family out of the candidate set.
func TestFitAllModelSelection(t *testing.T) {
	pareto := dist.Pareto{Xm: 3.0, Alpha: 2.614} // mean 4.858, as the paper's server 1
	fits := FitAll(sampleN(pareto, 20000, 8), 60)
	if len(fits) == 0 {
		t.Fatal("no fits")
	}
	if fits[0].Name != "Pareto" {
		for _, f := range fits {
			t.Logf("%-20s TSE=%.5g KS=%.4f", f.Name, f.TSE, f.KS)
		}
		t.Fatalf("TSE selection picked %s, want Pareto", fits[0].Name)
	}

	sgamma := dist.NewShiftedGamma(0.7, 3.0, 5.9) // mean ~1.21, like X12
	fits = FitAll(sampleN(sgamma, 20000, 9), 60)
	best := fits[0].Name
	if best != "Shifted-Gamma" && best != "Gamma" {
		for _, f := range fits {
			t.Logf("%-20s TSE=%.5g KS=%.4f", f.Name, f.TSE, f.KS)
		}
		t.Fatalf("TSE selection picked %s, want (Shifted-)Gamma", best)
	}
}

func TestFitAllSortedByTSE(t *testing.T) {
	xs := sampleN(dist.NewExponential(1), 5000, 10)
	fits := FitAll(xs, 40)
	for i := 1; i < len(fits); i++ {
		if fits[i-1].TSE > fits[i].TSE {
			t.Fatal("fits not sorted by TSE")
		}
	}
}

// TestFitAICPenalizesParameters: AIC is 2k − 2lnL and must be finite for
// admissible fits; on exponential data the exponential's AIC should beat
// the heavier-parameterized families despite similar likelihoods.
func TestFitAIC(t *testing.T) {
	xs := sampleN(dist.NewExponential(2), 20000, 21)
	fits := FitAll(xs, 50)
	byName := map[string]Fit{}
	for _, f := range fits {
		byName[f.Name] = f
		if math.IsNaN(f.AIC) {
			t.Fatalf("NaN AIC for %s", f.Name)
		}
		if f.Params < 1 || f.Params > 3 {
			t.Fatalf("odd parameter count for %s: %d", f.Name, f.Params)
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
	// AIC ordering is consistent with the likelihoods it is built from.
	for _, f := range fits {
		want := 2*float64(f.Params) - 2*f.LogLik
		if math.Abs(f.AIC-want) > 1e-9 {
			t.Fatalf("%s AIC %.3f != 2k−2lnL %.3f", f.Name, f.AIC, want)
		}
	}
}
