package dist

import (
	"math"
	"runtime"
)

// quantilePow is math.Pow(x, y), bit for bit, for the inverse-transform
// draws whose exponent is 1/shape. For a finite x > 0, x ≠ 1, and
// 0 < y < ½, math.Pow's portable code computes x^y as
// Ldexp(Exp(y·Log x), 0), which is Exp(y·Log x) exactly; this computes
// that expression without pow's special-case ladder and its squaring
// loop. Every other (x, y), and every x^y on s390x (whose math.Pow is
// its own assembly), is math.Pow's. The identity rests on the
// toolchain's pow: FuzzQuantilePow and testdata/sample_streams_pinned.json
// catch a toolchain that breaks it.
func quantilePow(x, y float64) float64 {
	if runtime.GOARCH != "s390x" && x > 0 && x <= math.MaxFloat64 && x != 1 && 0 < y && y < 0.5 {
		return math.Exp(y * math.Log(x))
	}
	return math.Pow(x, y)
}
