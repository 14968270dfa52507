package quad

import (
	"math"
	"testing"
	"testing/quick"

	"dtr/internal/testutil"
)

func TestSimpsonPolynomials(t *testing.T) {
	// Simpson with Richardson extrapolation is exact for cubics; adaptivity
	// should handle higher degrees to tolerance.
	testutil.Almost(t, Simpson(func(x float64) float64 { return 1 }, 0, 5, 1e-12), 5, 1e-12, "const")
	testutil.Almost(t, Simpson(func(x float64) float64 { return x * x * x }, 0, 2, 1e-12), 4, 1e-12, "cubic")
	testutil.Almost(t, Simpson(func(x float64) float64 { return math.Pow(x, 7) }, 0, 1, 1e-12), 0.125, 1e-10, "x^7")
}

func TestSimpsonTranscendental(t *testing.T) {
	testutil.Almost(t, Simpson(math.Sin, 0, math.Pi, 1e-12), 2, 1e-11, "sin")
	testutil.Almost(t, Simpson(math.Exp, 0, 1, 1e-12), math.E-1, 1e-11, "exp")
	got := Simpson(func(x float64) float64 { return math.Exp(-x * x) }, -6, 6, 1e-13)
	testutil.Almost(t, got, math.Sqrt(math.Pi), 1e-11, "gaussian")
}

func TestSimpsonOrientation(t *testing.T) {
	f := func(x float64) float64 { return x }
	if got := Simpson(f, 2, 2, 1e-9); got != 0 {
		t.Fatalf("empty interval: %g", got)
	}
	testutil.Almost(t, Simpson(f, 1, 0, 1e-12), -0.5, 1e-12, "reversed bounds")
}

func TestToInfExponential(t *testing.T) {
	got := ToInf(func(x float64) float64 { return math.Exp(-x) }, 0, 1e-11)
	testutil.Almost(t, got, 1, 1e-9, "int exp(-x)")
	// ∫_a^∞ e^{-x} dx = e^{-a}
	got = ToInf(func(x float64) float64 { return math.Exp(-x) }, 2, 1e-11)
	testutil.Almost(t, got, math.Exp(-2), 1e-8, "shifted lower bound")
	// ∫_1^∞ x^{-3} dx = 1/2  (polynomial decay)
	got = ToInf(func(x float64) float64 { return math.Pow(x, -3) }, 1, 1e-11)
	testutil.Almost(t, got, 0.5, 1e-8, "pareto-like tail")
}

func TestSimpsonAdditivity(t *testing.T) {
	f := func(x float64) float64 { return math.Exp(-x/2) * (1 + math.Cos(x)) }
	prop := func(split float64) bool {
		m := math.Abs(math.Mod(split, 5))
		whole := Simpson(f, 0, 5, 1e-11)
		parts := Simpson(f, 0, m, 1e-11) + Simpson(f, m, 5, 1e-11)
		return math.Abs(whole-parts) < 1e-8
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
