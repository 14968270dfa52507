package dist

import (
	"math"

	"dtr/internal/cpu"
)

// paretoCDFLanes (pareto_amd64.s: AVX2 and FMA3) stores the Pareto CDF
// at the points of the whole quads of xs, four lanes at a time, for
// scale xm > 0 and a shape above 1 split into yi + yf as math.Pow splits
// it, and returns how many points it stored: it stops, leaving the quad
// as it is, at the first quad with a point off its path.
//
//go:noescape
func paretoCDFLanes(xs []float64, xm, yf float64, yi int64) (done int)

func init() {
	// The lanes mirror archExp's FMA path. Go's math takes it where the
	// CPU has AVX and FMA3 and the OS saves YMM state, unless GODEBUG
	// turns FMA off; Exp(0.375) rounds to different last bits on its two
	// paths.
	paretoLanes = cpu.X86.FMA() && math.Float64bits(math.Exp(0.375)) == 0x3ff747a513dbef6b
}
