package dist

import (
	"math"
	"math/rand/v2"
	"testing"
)

// lanesModes runs f with the lane kernel on, where the host has it, and
// switched off, restoring the switch after.
func lanesModes(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	host := paretoLanes
	defer func() { paretoLanes = host }()
	for _, on := range []bool{true, false} {
		if on && !host {
			t.Log("this host has no lane kernel (amd64 with AVX2 and FMA3): the scalar loop only")
			continue
		}
		paretoLanes = on
		f(t)
	}
}

// checkCDFs fails unless d.CDFs stores d.CDF's bits at every point of
// xs and leaves the rest of buf alone.
func checkCDFs(t *testing.T, d Pareto, buf []float64, off, n int) {
	t.Helper()
	got := append([]float64(nil), buf...)
	d.CDFs(got[off : off+n])
	for i, x := range buf {
		want := x
		if i >= off && i < off+n {
			want = d.CDF(x)
		}
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("%v (lanes %v), point %d of [%d, %d) at x = %v (%#x): CDFs %v (%#x), CDF %v (%#x)",
				d, paretoLanes, i, off, off+n, x, math.Float64bits(x), got[i], math.Float64bits(got[i]),
				want, math.Float64bits(want))
		}
	}
}

// paretoPoints fills buf with points for a law of scale xm: most near
// the support, where the CDF rises, the rest log-uniform from the least
// subnormal to 1e300 or powers of two, with the support's edge, its
// successor, NaN, ±Inf, zero and negatives among them.
func paretoPoints(r *rand.Rand, xm float64, buf []float64) {
	for i := range buf {
		switch u := r.IntN(21); {
		case u < 12:
			buf[i] = xm * math.Exp(r.Float64()*12)
		case u == 20:
			buf[i] = math.Ldexp(1, r.IntN(1000)-20)
		case u < 17:
			buf[i] = math.Exp(math.Log(5e-324) + r.Float64()*(math.Log(1e300)-math.Log(5e-324)))
		case u == 17:
			buf[i] = math.Nextafter(xm, math.Inf(1))
		default:
			buf[i] = []float64{xm, 0, -1, math.NaN(), math.Inf(1), math.Inf(-1), 5e-324}[r.IntN(7)]
		}
	}
}

// TestParetoCDFLanesMatchCDF holds CDFs to CDF, bit for bit, over the
// paper's shapes (2.5 and 1.5, an exactly ½ fraction), the testbed's
// 2.614, integers and fractions on either side of ½, at scales from
// subnormal to huge, over slices of every length and offset modulo the
// lane width.
func TestParetoCDFLanesMatchCDF(t *testing.T) {
	lanesModes(t, func(t *testing.T) {
		r := rand.New(rand.NewPCG(11, 13))
		buf := make([]float64, 300)
		alphas := []float64{2.5, 1.5, 2.614, 2, 3, 16, 1.25, 1.75, 1.5000000000000002, 1.0000000000000002, 15.999999999999998,
			1000.7, 1 << 40, 1<<62 + 1<<10, 0x1p63 - 0x1p10}
		xms := []float64{1.2, 0.6 * 3, 0.2, 1e-300, 3e-310, 1e300, 7}
		for it := 0; it < 3000; it++ {
			a := alphas[it%len(alphas)]
			if it%3 == 0 {
				a = 1 + 15*r.Float64()
			}
			xm := xms[it%len(xms)]
			if it%4 == 0 {
				xm = math.Exp(r.Float64()*60 - 30)
			}
			paretoPoints(r, xm, buf)
			off := r.IntN(8)
			checkCDFs(t, Pareto{Xm: xm, Alpha: a}, buf, off, r.IntN(len(buf)-off+1))
		}
	})
}

// hsqrt2 is archLog's HSqrt2, √2/2 rounded: a quotient whose Frexp
// mantissa is exactly this takes archLog's k −= 1, f1 *= 2 branch.
const hsqrt2 = 0x1.6a09e667f3bcdp-1

// TestParetoCDFLanesAtTheLogSplit holds CDFs to CDF at every normal
// quotient Xm/x ≤ 1 whose mantissa is archLog's branch point: Xm =
// hsqrt2 and x = 2⁰ … 2¹⁰²¹. The lanes branch on f1 ≤ HSqrt2 as archLog
// does; on these quotients the other branch happens to give the same
// Log bits too, so this holds the values, not the choice.
func TestParetoCDFLanesAtTheLogSplit(t *testing.T) {
	xs := make([]float64, 1022)
	for j := range xs {
		xs[j] = math.Ldexp(1, j)
	}
	lanesModes(t, func(t *testing.T) {
		for _, a := range []float64{1.5, 2.5, 2.614, 1.25, 1.75, 3.1, 15.9} {
			checkCDFs(t, Pareto{Xm: hsqrt2, Alpha: a}, xs, 0, len(xs))
		}
	})
}

// TestParetoCDFLanesTakeTheSupport: where the host has the lanes, they
// take every whole quad of a lab_sweep transfer law's half-points above
// its scale, where the scalar loop would otherwise do the work.
func TestParetoCDFLanesTakeTheSupport(t *testing.T) {
	if !paretoLanes {
		t.Skip("this host has no lane kernel (amd64 with AVX2 and FMA3)")
	}
	const dx = 2600.0 / 2047
	for _, a := range []float64{2.5, 1.5, 3, 2.614} {
		d := NewPareto(a, 300)
		var xs []float64
		for i := range 2048 {
			if x := (float64(i) + 0.5) * dx; x > d.Xm {
				xs = append(xs, x)
			}
		}
		yi, yf := powSplit(a)
		if got, want := paretoCDFLanes(xs, d.Xm, yf, yi), len(xs)&^3; got != want {
			t.Errorf("%v: the lanes took %d of %d points above the scale, want %d", d, got, len(xs), want)
		}
	}
}

// FuzzParetoCDFLanes holds CDFs to CDF, bit for bit, for an arbitrary
// scale, a shape in (1, 16] (rounded up to an integer when integer is
// set) and points paretoPoints draws from seed, on a slice of any length
// and offset.
func FuzzParetoCDFLanes(f *testing.F) {
	f.Add(1.2, 0.1, false, uint64(1), uint16(2048), uint8(0))
	f.Add(0.6, 0.5/15, false, uint64(2), uint16(7), uint8(3))
	f.Add(1e-300, 0.7, true, uint64(3), uint16(300), uint8(5))
	f.Add(-1.0, 0.3, false, uint64(4), uint16(64), uint8(1))
	f.Add(math.NaN(), 1.0, true, uint64(5), uint16(17), uint8(2))
	f.Add(3e-310, 0.9, false, uint64(6), uint16(129), uint8(7))
	for k, frac := range []float64{0.5 / 15, 1.5 / 15, 1.614 / 15} { // Xm/x at archLog's branch point
		f.Add(hsqrt2, frac, false, uint64(7+k), uint16(4096), uint8(k))
	}
	f.Fuzz(func(t *testing.T, xm, a float64, integer bool, seed uint64, n uint16, off uint8) {
		a = 1 + 15*math.Abs(math.Mod(a, 1))
		if integer {
			a = math.Ceil(a)
		}
		if !(a > 1) {
			a = 16 // a NaN fraction
		}
		buf := make([]float64, int(n%4096)+int(off%8))
		paretoPoints(rand.New(rand.NewPCG(seed, 1)), xm, buf)
		lanesModes(t, func(t *testing.T) {
			checkCDFs(t, Pareto{Xm: xm, Alpha: a}, buf, int(off%8), int(n%4096))
		})
	})
}
