package dist

import (
	"math"
	"math/rand/v2"
	"testing"
)

// checkQuantilePow fails unless quantilePow(x, y) and math.Pow(x, y)
// have the same IEEE-754 bits.
func checkQuantilePow(t *testing.T, x, y float64) {
	t.Helper()
	if got, want := quantilePow(x, y), math.Pow(x, y); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("quantilePow(%v, %v) = %v (%#x), math.Pow = %v (%#x)",
			x, y, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestQuantilePowMatchesPow draws the arguments the quantiles pass — a
// probability complement or an exponential variate raised to 1/shape for
// shapes above 1 — and arguments spread over every binade.
func TestQuantilePowMatchesPow(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 5))
	for i := 0; i < 200_000; i++ {
		y := 1 / (1 + 9*r.Float64())
		checkQuantilePow(t, 1-r.Float64(), y)
		checkQuantilePow(t, -math.Log1p(-r.Float64()), y)
		checkQuantilePow(t, math.Float64frombits(r.Uint64()>>1), y)
		checkQuantilePow(t, math.Float64frombits(r.Uint64()>>1), r.Float64())
	}
}

// FuzzQuantilePow holds quantilePow to math.Pow on arbitrary bit
// patterns. The seeds put y in every branch of pow: its special cases
// (0, ±1, ±½, NaN, ±Inf), the short path and its edges, ½ < y < 1,
// integer and mixed exponents of either sign, and |y| ≥ 2⁶³; and x at
// 0, ±1, subnormals, NaN, ±Inf and negative finite values.
func FuzzQuantilePow(f *testing.F) {
	xs := []float64{0, math.Copysign(0, -1), 1, -1, 0.3, 7, -2, 5e-324, 2.2e-308,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	ys := []float64{0, 1, -1, 0.5, -0.5, 0.25, 0.4, 1 / 2.614, 0.75, 1 / 1.7,
		0.49999999999999994, 0.5000000000000001, 0.9999999999999999, 4.9e-324,
		2, 3, -3, 1.5, -0.3, -1.25, 1 << 63, -1e300, math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, x := range xs {
		for _, y := range ys {
			f.Add(math.Float64bits(x), math.Float64bits(y))
		}
	}
	f.Fuzz(func(t *testing.T, xb, yb uint64) {
		checkQuantilePow(t, math.Float64frombits(xb), math.Float64frombits(yb))
	})
}
