package fft

import (
	"math"
	"math/big"
	"math/cmplx"
	"math/rand/v2"
	"testing"
)

// The reference is the O(N²) definition of the DFT evaluated in
// math/big at refPrec bits, so its own error is far below a float64 ulp
// and what the comparisons measure is the transform under test.
const refPrec = 160

type bigComplex struct{ re, im *big.Float }

func newBig(x float64) *big.Float { return new(big.Float).SetPrec(refPrec).SetFloat64(x) }

func mulBig(a, b *big.Float) *big.Float { return new(big.Float).SetPrec(refPrec).Mul(a, b) }

// bigRoots returns exp(-2πi·k/n) for k < n (n a power of two ≥ 2). The
// primitive root comes from cos π = −1 by the half-angle formulas, the
// powers from repeated multiplication; both lose a handful of the 160
// bits at most.
func bigRoots(n int) []bigComplex {
	cos, sin := newBig(-1), newBig(0) // angle π, i.e. n = 2
	half := newBig(0.5)
	for m := 2; m < n; m <<= 1 {
		// cos(θ/2) = sqrt((1+cos θ)/2); sin(θ/2) = sin θ / (2 cos(θ/2)),
		// except at θ = π where sin(θ/2) = 1.
		c := new(big.Float).SetPrec(refPrec).Add(newBig(1), cos)
		c.Sqrt(c.Mul(c, half))
		s := newBig(1)
		if m > 2 {
			s.Quo(sin, new(big.Float).SetPrec(refPrec).Add(c, c))
		}
		cos, sin = c, s
	}
	w := bigComplex{cos, new(big.Float).SetPrec(refPrec).Neg(sin)}
	roots := make([]bigComplex, n)
	roots[0] = bigComplex{newBig(1), newBig(0)}
	for k := 1; k < n; k++ {
		p := roots[k-1]
		re := mulBig(p.re, w.re)
		re.Sub(re, mulBig(p.im, w.im))
		im := mulBig(p.re, w.im)
		im.Add(im, mulBig(p.im, w.re))
		roots[k] = bigComplex{re, im}
	}
	return roots
}

// bigDFT returns the forward DFT of a by the definition, rounded to
// float64 at the end.
func bigDFT(a []complex128) []complex128 {
	n := len(a)
	roots := bigRoots(n)
	re := make([]*big.Float, n)
	im := make([]*big.Float, n)
	for j, v := range a {
		re[j], im[j] = newBig(real(v)), newBig(imag(v))
	}
	out := make([]complex128, n)
	for k := range out {
		sr, si := newBig(0), newBig(0)
		for j := range a {
			w := roots[k*j%n]
			sr.Add(sr, mulBig(re[j], w.re))
			sr.Sub(sr, mulBig(im[j], w.im))
			si.Add(si, mulBig(re[j], w.im))
			si.Add(si, mulBig(im[j], w.re))
		}
		r, _ := sr.Float64()
		i, _ := si.Float64()
		out[k] = complex(r, i)
	}
	return out
}

// maxAbs returns the largest modulus in a.
func maxAbs(a []complex128) float64 {
	var m float64
	for _, v := range a {
		m = math.Max(m, cmplx.Abs(v))
	}
	return m
}

// bigCircular returns the circular convolution of x and y (one length)
// by the definition, rounded to float64 at the end.
func bigCircular(x, y []float64) []float64 {
	n := len(x)
	bx, by := make([]*big.Float, n), make([]*big.Float, n)
	for i := range x {
		bx[i], by[i] = newBig(x[i]), newBig(y[i])
	}
	out := make([]float64, n)
	s, p := newBig(0), newBig(0)
	for k := range out {
		s.SetFloat64(0)
		for i, xv := range bx {
			s.Add(s, p.Mul(xv, by[(k-i+n)%n]))
		}
		out[k], _ = s.Float64()
	}
	return out
}

// TestTransformsMatchBigDFT holds the complex transforms, both
// directions, RealForward and the fused ConvolveSpectrum to the math/big
// DFT for every size from 2 to 1024, under each butterfly
// implementation. ConvolveSpectrum multiplies by the exact spectrum of a
// second sequence, so what it is held to is the exact circular
// convolution. The budget is a few ulps of the largest output per
// butterfly level.
func TestTransformsMatchBigDFT(t *testing.T) {
	type sizeCase struct {
		a, wantA       []complex128
		x, y, wantConv []float64
		wantX, g       []complex128
	}
	r := rand.New(rand.NewPCG(7, 8))
	var cases []sizeCase
	for n := 2; n <= 1024; n <<= 1 {
		c := sizeCase{a: make([]complex128, n), x: make([]float64, n), y: make([]float64, n)}
		for i := range c.a {
			c.a[i] = complex(r.Float64()-0.5, r.Float64()-0.5)
			c.x[i] = r.Float64()
			c.y[i] = r.Float64()
		}
		xc, yc := make([]complex128, n), make([]complex128, n)
		for i := range xc {
			xc[i], yc[i] = complex(c.x[i], 0), complex(c.y[i], 0)
		}
		c.wantA, c.wantX, c.g = bigDFT(c.a), bigDFT(xc), bigDFT(yc)[:n/2+1]
		c.wantConv = bigCircular(c.x, c.y)
		cases = append(cases, c)
	}
	eachKernel(t, func(t *testing.T) {
		for _, c := range cases {
			n := len(c.a)
			levels := math.Log2(float64(n))
			tolA := 4e-16 * levels * maxAbs(c.wantA)
			tolX := 4e-16 * levels * maxAbs(c.wantX)
			tolBack := 4e-16 * levels // samples are below 1 in modulus
			var maxConv float64
			for _, v := range c.wantConv {
				maxConv = math.Max(maxConv, v)
			}
			tolConv := 4e-16 * levels * maxConv

			got := append([]complex128(nil), c.a...)
			Forward(got)
			for k := range got {
				if d := cmplx.Abs(got[k] - c.wantA[k]); d > tolA {
					t.Fatalf("n=%d Forward bin %d: off by %g (budget %g)", n, k, d, tolA)
				}
			}
			back := append([]complex128(nil), c.wantA...)
			Inverse(back)
			for i := range back {
				if d := cmplx.Abs(back[i] - c.a[i]); d > tolBack {
					t.Fatalf("n=%d Inverse sample %d: off by %g", n, i, d)
				}
			}

			spec := make([]complex128, n/2+1)
			RealForward(spec, c.x)
			for k := range spec {
				if d := cmplx.Abs(spec[k] - c.wantX[k]); d > tolX {
					t.Fatalf("n=%d RealForward bin %d: off by %g (budget %g)", n, k, d, tolX)
				}
			}
			out, z := make([]complex128, n/2), make([]complex128, n/2)
			ConvolveSpectrum(out, z, c.x, c.g)
			for i, v := range unpack(out) {
				if d := math.Abs(v - c.wantConv[i]); d > tolConv {
					t.Fatalf("n=%d ConvolveSpectrum sample %d: off by %g (budget %g)", n, i, d, tolConv)
				}
			}
		}
	})
}

// TestRealForwardZeroPads: a short or odd-length input is the same as
// its zero-padded extension, and stale spectrum contents never leak.
func TestRealForwardZeroPads(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 10))
	for _, n := range []int{2, 8, 64, 512} {
		for _, lx := range []int{1, 2, 3, n/2 + 1, n - 1, n} {
			if lx > n {
				continue
			}
			x := make([]float64, lx)
			for i := range x {
				x[i] = r.Float64()
			}
			want := make([]complex128, n/2+1)
			RealForward(want, append(append([]float64(nil), x...), make([]float64, n-lx)...))
			got := make([]complex128, n/2+1)
			for i := range got {
				got[i] = complex(math.NaN(), math.NaN()) // a dirty reused buffer
			}
			RealForward(got, x)
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("n=%d len=%d bin %d: %v, zero-padded %v", n, lx, k, got[k], want[k])
				}
			}
		}
	}
}

// TestRoundTripNoWorseThanSeed pins the bench ledger's
// fft.roundtrip_err_max: Forward then Inverse on uniform [0,1) complex
// data at the solver's sizes. The running-product twiddles of the seed
// measured 3.2e-13; table twiddles stay within a few ulps.
func TestRoundTripNoWorseThanSeed(t *testing.T) {
	const seed = 3.2e-13
	r := rand.New(rand.NewPCG(1, 1))
	for _, n := range []int{1 << 12, 1 << 14} {
		src := make([]complex128, n)
		for i := range src {
			src[i] = complex(r.Float64(), r.Float64())
		}
		buf := append([]complex128(nil), src...)
		Forward(buf)
		Inverse(buf)
		var worst float64
		for i := range buf {
			worst = math.Max(worst, cmplx.Abs(buf[i]-src[i]))
		}
		t.Logf("n=%d round trip error %g", n, worst)
		if worst > seed {
			t.Fatalf("n=%d: round trip error %g exceeds the seed's %g", n, worst, seed)
		}
	}
}
