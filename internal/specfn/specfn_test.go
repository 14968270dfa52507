package specfn

import (
	"math"
	"testing"
	"testing/quick"

	"dtr/internal/testutil"
)

func TestGammaPKnownValues(t *testing.T) {
	// Reference values computed with high-precision software.
	cases := []struct{ a, x, p float64 }{
		{1, 1, 1 - math.Exp(-1)},            // exponential CDF
		{1, 2.5, 1 - math.Exp(-2.5)},        // exponential CDF
		{0.5, 0.5, math.Erf(math.Sqrt(.5))}, // chi-square(1) at 1: P(.5, x) = erf(sqrt(x))
		{0.5, 2, math.Erf(math.Sqrt(2))},
		{2, 2, 1 - 3*math.Exp(-2)},         // Erlang-2: 1-(1+x)e^{-x}
		{3, 1, 1 - (1+1+0.5)*math.Exp(-1)}, // Erlang-3
	}
	for _, c := range cases {
		testutil.Almost(t, GammaP(c.a, c.x), c.p, 1e-12, "GammaP")
		testutil.Almost(t, GammaQ(c.a, c.x), 1-c.p, 1e-10, "GammaQ")
	}
}

// TestGammaQPoissonIdentity checks Q(n, x) = P(Poisson(x) < n) for integer n,
// an exact identity that gives an independent reference computation.
func TestGammaQPoissonIdentity(t *testing.T) {
	for _, n := range []int{1, 2, 5, 10, 40, 100} {
		for _, x := range []float64{0.5, 3, 9.5, 40, 90, 130} {
			// Poisson CDF at n-1 computed by direct summation in log space.
			sum := 0.0
			term := math.Exp(-x) // k = 0 term
			for k := 0; k < n; k++ {
				sum += term
				term *= x / float64(k+1)
			}
			testutil.Almost(t, GammaQ(float64(n), x), sum, 1e-11, "Poisson identity")
		}
	}
}

func TestGammaPEdgeCases(t *testing.T) {
	if got := GammaP(2, 0); got != 0 {
		t.Fatalf("P(a,0) = %g, want 0", got)
	}
	if got := GammaP(2, math.Inf(1)); got != 1 {
		t.Fatalf("P(a,inf) = %g, want 1", got)
	}
	for _, bad := range [][2]float64{{-1, 1}, {0, 1}, {1, -1}, {math.NaN(), 1}, {1, math.NaN()}} {
		if got := GammaP(bad[0], bad[1]); !math.IsNaN(got) {
			t.Fatalf("P(%g,%g) = %g, want NaN", bad[0], bad[1], got)
		}
	}
}

func TestGammaPMonotoneInX(t *testing.T) {
	f := func(a, x1, x2 float64) bool {
		a = 0.1 + math.Abs(math.Mod(a, 50))
		x1 = math.Abs(math.Mod(x1, 100))
		x2 = math.Abs(math.Mod(x2, 100))
		lo, hi := math.Min(x1, x2), math.Max(x1, x2)
		return GammaP(a, lo) <= GammaP(a, hi)+1e-13
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGammaPPlusQIsOne(t *testing.T) {
	f := func(a, x float64) bool {
		a = 0.1 + math.Abs(math.Mod(a, 30))
		x = math.Abs(math.Mod(x, 120))
		p, q := GammaP(a, x), GammaQ(a, x)
		return math.Abs(p+q-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGammaPInvRoundTrip(t *testing.T) {
	for _, a := range []float64{0.3, 0.5, 1, 2, 3.7, 10, 50} {
		for _, p := range []float64{1e-8, 1e-4, 0.01, 0.1, 0.5, 0.9, 0.99, 0.9999} {
			x := GammaPInv(a, p)
			if x < 0 || math.IsNaN(x) {
				t.Fatalf("GammaPInv(%g,%g) = %g", a, p, x)
			}
			testutil.Almost(t, GammaP(a, x), p, 1e-9, "round trip")
		}
	}
	if GammaPInv(2, 0) != 0 {
		t.Fatal("GammaPInv(a,0) should be 0")
	}
	if !math.IsInf(GammaPInv(2, 1), 1) {
		t.Fatal("GammaPInv(a,1) should be +Inf")
	}
	if !math.IsNaN(GammaPInv(-1, 0.5)) || !math.IsNaN(GammaPInv(2, 1.5)) {
		t.Fatal("invalid arguments should give NaN")
	}
}

func TestNormCDFKnownValues(t *testing.T) {
	testutil.Almost(t, NormCDF(0), 0.5, 1e-15, "Phi(0)")
	testutil.Almost(t, NormCDF(1.959963984540054), 0.975, 1e-12, "Phi(1.96)")
	testutil.Almost(t, NormCDF(-1.959963984540054), 0.025, 1e-12, "Phi(-1.96)")
	testutil.Almost(t, NormCDF(3), 0.9986501019683699, 1e-13, "Phi(3)")
}

func TestNormQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-12, 1e-6, 0.001, 0.025, 0.3, 0.5, 0.7, 0.975, 0.999, 1 - 1e-6} {
		x := NormQuantile(p)
		testutil.Almost(t, NormCDF(x), p, 1e-11, "norm round trip")
	}
	if NormQuantile(0.5) != 0 {
		testutil.Almost(t, NormQuantile(0.5), 0, 1e-15, "median")
	}
	if !math.IsInf(NormQuantile(0), -1) || !math.IsInf(NormQuantile(1), 1) {
		t.Fatal("quantile endpoints")
	}
}

func TestDigammaKnownValues(t *testing.T) {
	const gamma = 0.5772156649015328606 // Euler–Mascheroni
	testutil.Almost(t, Digamma(1), -gamma, 1e-12, "psi(1)")
	testutil.Almost(t, Digamma(2), 1-gamma, 1e-12, "psi(2)")
	testutil.Almost(t, Digamma(0.5), -gamma-2*math.Log(2), 1e-12, "psi(1/2)")
	testutil.Almost(t, Digamma(10), 2.251752589066721, 1e-12, "psi(10)")
	if !math.IsNaN(Digamma(-3)) || !math.IsNaN(Digamma(0)) {
		t.Fatal("digamma invalid domain")
	}
}

func TestDigammaRecurrence(t *testing.T) {
	// psi(x+1) = psi(x) + 1/x
	f := func(x float64) bool {
		x = 0.1 + math.Abs(math.Mod(x, 40))
		return math.Abs(Digamma(x+1)-Digamma(x)-1/x) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTrigamma(t *testing.T) {
	testutil.Almost(t, Trigamma(1), math.Pi*math.Pi/6, 1e-11, "psi'(1)")
	testutil.Almost(t, Trigamma(0.5), math.Pi*math.Pi/2, 1e-11, "psi'(1/2)")
	// psi'(x+1) = psi'(x) - 1/x^2
	for _, x := range []float64{0.3, 1.5, 4, 12} {
		testutil.Almost(t, Trigamma(x+1), Trigamma(x)-1/(x*x), 1e-10, "trigamma recurrence")
	}
	if !math.IsNaN(Trigamma(0)) {
		t.Fatal("trigamma invalid domain")
	}
}

func TestDigammaIsDerivativeOfLgamma(t *testing.T) {
	for _, x := range []float64{0.7, 1.3, 2.9, 8, 33} {
		h := 1e-6 * math.Max(1, x)
		l1, _ := math.Lgamma(x + h)
		l0, _ := math.Lgamma(x - h)
		num := (l1 - l0) / (2 * h)
		testutil.Almost(t, Digamma(x), num, 1e-6, "psi vs numeric dlgamma")
	}
}
