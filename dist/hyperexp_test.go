package dist

import (
	"math"
	"math/rand/v2"
	"testing"

	"dtr/internal/quad"
	"dtr/internal/testutil"
)

func TestHyperExponentialMoments(t *testing.T) {
	d := NewHyperExponential([]float64{0.3, 0.7}, []float64{2, 0.5})
	wantMean := 0.3/2 + 0.7/0.5
	testutil.Almost(t, d.Mean(), wantMean, 1e-12, "mixture mean")
	wantM2 := 2*0.3/4 + 2*0.7/0.25
	testutil.Almost(t, d.Var(), wantM2-wantMean*wantMean, 1e-12, "mixture variance")
	// Weights normalize.
	d2 := NewHyperExponential([]float64{3, 7}, []float64{2, 0.5})
	testutil.Almost(t, d2.Mean(), wantMean, 1e-12, "unnormalized weights")
}

func TestHyperExponential2Fit(t *testing.T) {
	d := NewHyperExponential2(2, 4) // mean 2, scv 4
	testutil.Almost(t, d.Mean(), 2, 1e-9, "balanced fit mean")
	scv := d.Var() / (d.Mean() * d.Mean())
	testutil.Almost(t, scv, 4, 1e-9, "balanced fit scv")
}

func TestHyperExponentialPDFIntegrates(t *testing.T) {
	d := NewHyperExponential2(1.5, 3)
	for _, x := range []float64{0.4, 1.2, 5} {
		got := quad.Simpson(d.PDF, 0, x, 1e-11)
		testutil.Almost(t, got, d.CDF(x), 1e-8, "hyperexp pdf->cdf")
	}
}

func TestHyperExponentialQuantileRoundTrip(t *testing.T) {
	d := NewHyperExponential([]float64{0.2, 0.5, 0.3}, []float64{5, 1, 0.2})
	for _, p := range []float64{0.01, 0.3, 0.5, 0.9, 0.999} {
		testutil.Almost(t, d.CDF(d.Quantile(p)), p, 1e-9, "hyperexp quantile round trip")
	}
	if d.Quantile(0) != 0 || !math.IsInf(d.Quantile(1), 1) {
		t.Fatal("quantile endpoints")
	}
}

// TestHyperExponentialAgedClosedForm: the residual law stays in the
// family with re-weighted mixture weights, and matches the generic
// conditional identity.
func TestHyperExponentialAgedClosedForm(t *testing.T) {
	d := NewHyperExponential([]float64{0.6, 0.4}, []float64{3, 0.3})
	for _, a := range []float64{0.5, 2, 10} {
		ad := d.Aged(a)
		he, ok := ad.(HyperExponential)
		if !ok {
			t.Fatalf("aged hyperexponential left the family: %T", ad)
		}
		// Weights shift toward the slow phase as the clock ages.
		if he.W[1] <= d.W[1] {
			t.Fatalf("slow-phase weight should grow with age: %v", he.W)
		}
		for _, x := range []float64{0, 0.7, 3} {
			want := d.Survival(a+x) / d.Survival(a)
			testutil.Almost(t, ad.Survival(x), want, 1e-12, "aged identity")
		}
	}
	// Residual mean grows with age (decreasing hazard).
	if d.Aged(5).Mean() <= d.Mean() {
		t.Fatal("residual mean should exceed fresh mean")
	}
}

func TestHyperExponentialSampleMoments(t *testing.T) {
	d := NewHyperExponential2(2, 3)
	r := rand.New(rand.NewPCG(11, 12))
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		x := d.Sample(r)
		if x < 0 {
			t.Fatalf("negative sample %g", x)
		}
		sum += x
	}
	sd := math.Sqrt(d.Var() / n)
	if math.Abs(sum/n-2) > 6*sd {
		t.Fatalf("sample mean %g want 2 ± %g", sum/n, 6*sd)
	}
}

func TestHyperExponentialMeanExcess(t *testing.T) {
	d := NewHyperExponential([]float64{0.5, 0.5}, []float64{2, 0.4})
	for _, x := range []float64{0, 1, 4} {
		want := quad.ToInf(d.Survival, x, 1e-11)
		testutil.Almost(t, MeanExcess(d, x), want, 1e-7, "hyperexp mean excess")
	}
}

func TestHyperExponentialValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewHyperExponential(nil, nil) },
		func() { NewHyperExponential([]float64{1}, []float64{1, 2}) },
		func() { NewHyperExponential([]float64{-1, 2}, []float64{1, 2}) },
		func() { NewHyperExponential([]float64{1, 2}, []float64{0, 2}) },
		func() { NewHyperExponential2(0, 4) },
		func() { NewHyperExponential2(1, 0.5) },
		func() { NewHyperExponential([]float64{1}, []float64{1}).Aged(-1) },
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

// TestHyperExponentialNotMemoryless: aging must genuinely change the law
// (the solvers track ages for it, unlike the exponential special case).
func TestHyperExponentialNotMemoryless(t *testing.T) {
	d := NewHyperExponential2(1, 3)
	ad := d.Aged(1)
	if math.Abs(ad.Survival(1)-d.Survival(1)) < 1e-12 {
		t.Fatal("aged hyperexponential should differ from the fresh law")
	}
}
