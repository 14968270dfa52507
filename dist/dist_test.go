package dist

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"dtr/internal/quad"
	"dtr/internal/testutil"
)

// testDists returns a representative instance of every concrete family,
// excluding improper/degenerate laws, for table-driven property tests.
func testDists() []Dist {
	return []Dist{
		NewExponential(2),
		NewShiftedExponential(1, 3),
		NewPareto(2.5, 2),
		NewPareto(1.5, 1),
		NewUniform(0.5, 1.5),
		NewGamma(2, 4),
		NewGamma(0.5, 1),
		NewShiftedGamma(0.3, 2.04, 2.4),
		NewWeibull(0.7, 2),
		NewWeibull(2, 1),
	}
}

func TestCDFSurvivalComplement(t *testing.T) {
	for _, d := range testDists() {
		for _, x := range []float64{0, 0.1, 0.5, 1, 2, 5, 20, 100} {
			if s := d.CDF(x) + d.Survival(x); math.Abs(s-1) > 1e-12 {
				t.Errorf("%v: CDF+Survival at %g = %g", d, x, s)
			}
		}
	}
}

func TestPDFIntegratesToCDF(t *testing.T) {
	for _, d := range testDists() {
		lo, _ := d.Support()
		// Start slightly above the support edge: densities with shape < 1
		// (gamma, Weibull) have an integrable singularity at the boundary
		// that pointwise quadrature cannot sample.
		start := lo + 1e-9
		for _, x := range []float64{0.8, 1.7, 4, 9} {
			if x <= start {
				continue
			}
			got := quad.Simpson(d.PDF, start, x, 1e-10)
			testutil.Almost(t, got, d.CDF(x)-d.CDF(start), 1e-4, d.String()+" pdf->cdf at "+fmtF(x))
		}
	}
}

func TestQuantileRoundTrip(t *testing.T) {
	for _, d := range testDists() {
		for _, p := range []float64{0.001, 0.05, 0.3, 0.5, 0.8, 0.99, 0.9999} {
			x := d.Quantile(p)
			testutil.Almost(t, d.CDF(x), p, 1e-7, d.String()+" quantile round trip")
		}
		if !math.IsNaN(d.Quantile(-0.1)) || !math.IsNaN(d.Quantile(1.5)) {
			t.Errorf("%v: out-of-range quantile should be NaN", d)
		}
	}
}

func TestMeanMatchesNumericIntegral(t *testing.T) {
	for _, d := range testDists() {
		// E[T] = ∫_0^∞ S(t) dt for non-negative T.
		want := quad.ToInf(d.Survival, 0, 1e-11)
		tol := 1e-5
		if math.IsInf(d.Var(), 1) {
			tol = 0.05 // heavy tails converge slowly in the numeric integral
		}
		testutil.Almost(t, d.Mean(), want, tol, d.String()+" mean vs integral")
	}
}

func TestVarMatchesNumericIntegral(t *testing.T) {
	for _, d := range testDists() {
		if math.IsInf(d.Var(), 1) {
			continue
		}
		m := d.Mean()
		m2 := 2 * quad.ToInf(func(t float64) float64 { return t * d.Survival(t) }, 0, 1e-11)
		testutil.Almost(t, d.Var(), m2-m*m, 1e-4, d.String()+" var vs integral")
	}
}

func TestSampleMoments(t *testing.T) {
	r := rand.New(rand.NewPCG(42, 43))
	const n = 200000
	for _, d := range testDists() {
		if math.IsInf(d.Var(), 1) {
			continue // sample mean of infinite-variance laws converges too slowly
		}
		var sum float64
		for i := 0; i < n; i++ {
			sum += d.Sample(r)
		}
		got := sum / n
		sd := math.Sqrt(d.Var() / n)
		if math.Abs(got-d.Mean()) > 6*sd+1e-9 {
			t.Errorf("%v: sample mean %g, want %g (6 sigma = %g)", d, got, d.Mean(), 6*sd)
		}
	}
}

func TestSamplesInSupport(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	for _, d := range testDists() {
		lo, hi := d.Support()
		for i := 0; i < 2000; i++ {
			x := d.Sample(r)
			if x < lo-1e-12 || x > hi+1e-12 {
				t.Fatalf("%v: sample %g outside [%g, %g]", d, x, lo, hi)
			}
		}
	}
}

// TestAgedSurvivalIdentity verifies the defining property of the paper's
// age variables: the aged law satisfies S_a(t) = S(a+t)/S(a).
func TestAgedSurvivalIdentity(t *testing.T) {
	for _, d := range testDists() {
		for _, a := range []float64{0.2, 0.9, 2.5, 7} {
			if d.Survival(a) < 1e-9 {
				continue
			}
			ad := d.Aged(a)
			for _, x := range []float64{0, 0.1, 0.7, 1.9, 6} {
				want := d.Survival(a+x) / d.Survival(a)
				testutil.Almost(t, ad.Survival(x), want, 1e-9,
					d.String()+" aged survival identity")
			}
		}
	}
}

func TestAgedPDFIdentity(t *testing.T) {
	for _, d := range testDists() {
		for _, a := range []float64{0.4, 1.7} {
			if d.Survival(a) < 1e-9 {
				continue
			}
			ad := d.Aged(a)
			for _, x := range []float64{0.05, 0.6, 2.2} {
				want := d.PDF(a+x) / d.Survival(a)
				testutil.Almost(t, ad.PDF(x), want, 1e-9, d.String()+" aged pdf identity")
			}
		}
	}
}

// TestAgedComposition checks (T_a)_b = T_{a+b}: aging twice equals aging
// once by the sum, the semigroup property the regeneration recursion
// relies on when it advances the global clock.
func TestAgedComposition(t *testing.T) {
	for _, d := range testDists() {
		a, b := 0.6, 0.9
		if d.Survival(a+b) < 1e-9 {
			continue
		}
		lhs := d.Aged(a).Aged(b)
		rhs := d.Aged(a + b)
		for _, x := range []float64{0, 0.3, 1.1, 4} {
			testutil.Almost(t, lhs.Survival(x), rhs.Survival(x), 1e-9,
				d.String()+" aged composition")
		}
	}
}

// TestExponentialMemoryless: Aged must be the identity for exponentials.
func TestExponentialMemoryless(t *testing.T) {
	d := NewExponential(3)
	for _, a := range []float64{0, 0.5, 10, 1000} {
		if got := d.Aged(a); got != Dist(d) {
			t.Fatalf("exponential Aged(%g) is not the identity: %v", a, got)
		}
	}
}

func TestAgedZeroIsIdentity(t *testing.T) {
	for _, d := range testDists() {
		ad := d.Aged(0)
		for _, x := range []float64{0.2, 1, 5} {
			testutil.Almost(t, ad.CDF(x), d.CDF(x), 1e-14, d.String()+" Aged(0)")
		}
	}
}

func TestAgedQuantileRoundTrip(t *testing.T) {
	for _, d := range testDists() {
		if d.Survival(1.2) < 1e-9 {
			continue
		}
		ad := d.Aged(1.2)
		for _, p := range []float64{0.05, 0.4, 0.9, 0.999} {
			x := ad.Quantile(p)
			testutil.Almost(t, ad.CDF(x), p, 1e-6, d.String()+" aged quantile round trip")
		}
	}
}

func TestAgedMeanIsResidualMean(t *testing.T) {
	for _, d := range testDists() {
		if math.IsInf(d.Var(), 1) {
			continue
		}
		a := 0.8
		if d.Survival(a) < 1e-9 {
			continue
		}
		want := quad.ToInf(d.Survival, a, 1e-11) / d.Survival(a)
		testutil.Almost(t, d.Aged(a).Mean(), want, 1e-4, d.String()+" aged mean")
	}
}

func TestAgedPastSupportPanics(t *testing.T) {
	cases := []struct {
		d Dist
		a float64
	}{
		{NewUniform(0.5, 1.5), 2},
		{NewDeterministic(1), 1.5},
		{NewDeterministic(0), 0.5},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v.Aged(%g) should panic", c.d, c.a)
				}
			}()
			c.d.Aged(c.a)
		}()
	}
}

func TestNegativeAgePanics(t *testing.T) {
	for _, d := range append(testDists(), Dist(Never{}), Dist(NewDeterministic(2))) {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v.Aged(-1) should panic", d)
				}
			}()
			d.Aged(-1)
		}()
	}
}

func TestMeanExcessIdentity(t *testing.T) {
	for _, d := range testDists() {
		if math.IsInf(d.Var(), 1) {
			continue
		}
		for _, x := range []float64{0, 0.4, 1.3, 5} {
			want := quad.ToInf(d.Survival, x, 1e-11)
			testutil.Almost(t, MeanExcess(d, x), want, 1e-4, d.String()+" mean excess")
		}
	}
}

func TestMeanExcessAtZeroIsMean(t *testing.T) {
	for _, d := range testDists() {
		if math.IsInf(d.Mean(), 1) {
			continue
		}
		testutil.Almost(t, MeanExcess(d, 0), d.Mean(), 1e-6, d.String()+" E[(T-0)+] = mean")
	}
}

func TestHazard(t *testing.T) {
	// Exponential hazard is constant at the rate.
	e := NewExponential(2)
	for _, x := range []float64{0.1, 1, 10} {
		testutil.Almost(t, Hazard(e, x), 0.5, 1e-12, "exponential hazard")
	}
	// Pareto hazard decreases as alpha/x.
	p := Pareto{Xm: 1, Alpha: 3}
	testutil.Almost(t, Hazard(p, 2), 1.5, 1e-12, "pareto hazard")
	// Zero survival region yields 0.
	u := NewUniform(0, 1)
	if Hazard(u, 2) != 0 {
		t.Fatal("hazard beyond support should be 0")
	}
}

func TestNever(t *testing.T) {
	n := Never{}
	if n.CDF(1e18) != 0 || n.Survival(1e18) != 1 {
		t.Fatal("Never should never occur")
	}
	if !math.IsInf(n.Mean(), 1) || !math.IsInf(n.Sample(rand.New(rand.NewPCG(1, 1))), 1) {
		t.Fatal("Never mean/sample should be +Inf")
	}
	if n.Aged(123).(Never) != n {
		t.Fatal("Never aged should be Never")
	}
	if !math.IsInf(MeanExcess(n, 5), 1) {
		t.Fatal("Never mean excess should be +Inf")
	}
}

func TestDeterministic(t *testing.T) {
	d := NewDeterministic(3)
	if d.CDF(2.999) != 0 || d.CDF(3) != 1 {
		t.Fatal("deterministic CDF step misplaced")
	}
	testutil.Almost(t, d.Mean(), 3, 0, "deterministic mean")
	if d.Var() != 0 {
		t.Fatal("deterministic variance should be 0")
	}
	ad := d.Aged(1)
	testutil.Almost(t, ad.Mean(), 2, 0, "aged deterministic")
	testutil.Almost(t, MeanExcess(d, 1), 2, 1e-12, "deterministic mean excess")
}

func TestFamiliesHaveMatchedMeans(t *testing.T) {
	for _, f := range AllFamilies() {
		for _, mean := range []float64{0.2, 1, 2, 9.5} {
			d := f.WithMean(mean)
			testutil.Almost(t, d.Mean(), mean, 1e-9, f.String()+" matched mean")
		}
	}
}

func TestPaperFamilies(t *testing.T) {
	fams := PaperFamilies()
	if len(fams) != 5 {
		t.Fatalf("paper compares 5 models, got %d", len(fams))
	}
	if fams[0] != FamilyExponential {
		t.Fatal("exponential baseline should come first")
	}
	// Pareto 2 must have infinite variance, Pareto 1 finite.
	if !math.IsInf(FamilyPareto2.WithMean(1).Var(), 1) {
		t.Fatal("Pareto 2 should have infinite variance")
	}
	if math.IsInf(FamilyPareto1.WithMean(1).Var(), 1) {
		t.Fatal("Pareto 1 should have finite variance")
	}
}

func TestFamilyByName(t *testing.T) {
	for _, f := range AllFamilies() {
		got, err := FamilyByName(f.String())
		if err != nil || got != f {
			t.Fatalf("FamilyByName(%q) = %v, %v", f.String(), got, err)
		}
	}
	if _, err := FamilyByName("Cauchy"); err == nil {
		t.Fatal("unknown family should error")
	}
}

func TestConstructorValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewExponential(0) },
		func() { NewExponential(-1) },
		func() { NewShiftedExponential(-1, 2) },
		func() { NewShiftedExponential(2, 2) },
		func() { NewPareto(1, 2) },
		func() { NewPareto(2, -1) },
		func() { NewUniform(2, 1) },
		func() { NewUniform(-1, 1) },
		func() { NewGamma(0, 1) },
		func() { NewGamma(1, 0) },
		func() { NewShiftedGamma(-1, 1, 1) },
		func() { NewShiftedGammaMean(2, 1, 1) },
		func() { NewWeibull(0, 1) },
		func() { NewDeterministic(-2) },
		func() { FamilyExponential.WithMean(0) },
		func() { Family(99).WithMean(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected constructor panic")
				}
			}()
			f()
		}()
	}
}

func TestStringsAreDescriptive(t *testing.T) {
	for _, d := range testDists() {
		s := d.String()
		if s == "" || !strings.Contains(s, "(") {
			t.Errorf("uninformative String: %q", s)
		}
	}
	ad := NewGamma(2, 1).Aged(0.5)
	if !strings.Contains(ad.String(), "Aged") {
		t.Errorf("aged wrapper String: %q", ad.String())
	}
}

func fmtF(x float64) string {
	return fmt.Sprintf("%g", x)
}
