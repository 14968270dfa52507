package dist

import (
	"math"
	"math/rand/v2"
	"testing"

	"dtr/internal/quad"
	"dtr/internal/testutil"
)

func TestLogNormalMoments(t *testing.T) {
	d := NewLogNormal(0.8, 2.5)
	testutil.Almost(t, d.Mean(), 2.5, 1e-12, "constructed mean")
	// Var = (e^{σ²}−1)·mean².
	testutil.Almost(t, d.Var(), math.Expm1(0.64)*2.5*2.5, 1e-10, "variance closed form")
	// Median = exp(Mu).
	testutil.Almost(t, d.Quantile(0.5), math.Exp(d.Mu), 1e-9, "median")
}

func TestLogNormalPDFIntegratesToCDF(t *testing.T) {
	d := NewLogNormal(1.0, 1.0)
	for _, x := range []float64{0.3, 1, 4} {
		got := quad.Simpson(d.PDF, 1e-12, x, 1e-11)
		testutil.Almost(t, got, d.CDF(x), 1e-6, "lognormal pdf->cdf")
	}
}

func TestLogNormalQuantileRoundTrip(t *testing.T) {
	d := NewLogNormal(0.5, 3)
	for _, p := range []float64{0.01, 0.3, 0.5, 0.9, 0.999} {
		testutil.Almost(t, d.CDF(d.Quantile(p)), p, 1e-9, "lognormal quantile round trip")
	}
}

func TestLogNormalSampleMean(t *testing.T) {
	d := NewLogNormal(0.6, 2)
	r := rand.New(rand.NewPCG(9, 10))
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += d.Sample(r)
	}
	sd := math.Sqrt(d.Var() / n)
	if math.Abs(sum/n-2) > 6*sd {
		t.Fatalf("sample mean %g want 2 ± %g", sum/n, 6*sd)
	}
}

func TestLogNormalAging(t *testing.T) {
	d := NewLogNormal(1.0, 2)
	a := 1.5
	ad := d.Aged(a)
	for _, x := range []float64{0, 0.5, 2, 8} {
		want := d.Survival(a+x) / d.Survival(a)
		testutil.Almost(t, ad.Survival(x), want, 1e-9, "lognormal aged survival")
	}
	// Log-normal hazard eventually decreases: the aged mean at a large
	// age exceeds the fresh mean (old transfers are bad news).
	old := d.Aged(20)
	if old.Mean() <= d.Mean() {
		t.Fatalf("residual mean at high age should exceed fresh mean: %g vs %g",
			old.Mean(), d.Mean())
	}
}

func TestLogNormalValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewLogNormal(0, 1) },
		func() { NewLogNormal(1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}
