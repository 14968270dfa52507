package fft

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"
)

// seedButterflies is the kernel the planned rows replaced, kept as the
// reference: it reads the twiddle table at a stride, tw[2j·st], tw[j·st]
// and tw[3j·st], where the kernel under test reads its plan rows. Every
// transform must stay bit-identical to the one built on it.
func (p *plan) seedButterflies(a []complex128) {
	n := len(a)
	h := 4
	if bits.TrailingZeros(uint(n))&1 == 1 {
		for i := 0; i < n; i += 2 {
			a[i], a[i+1] = a[i]+a[i+1], a[i]-a[i+1]
		}
		h = 2
	} else {
		for i := 0; i+3 < n; i += 4 {
			s, d, u, v := a[i]+a[i+1], a[i]-a[i+1], a[i+2]+a[i+3], a[i+2]-a[i+3]
			v = complex(imag(v), -real(v)) // −i·v
			a[i], a[i+1], a[i+2], a[i+3] = s+u, d+v, s-u, d-v
		}
	}
	tw := twiddles(3*n/4, n)
	for ; h < n; h <<= 2 {
		st := n / (4 * h)
		for i := 0; i < n; i += 4 * h {
			q0, q1, q2, q3 := a[i:i+h], a[i+h:i+2*h], a[i+2*h:i+3*h], a[i+3*h:i+4*h]
			for j := range q0 {
				// Twiddles w², w, w³ of w = exp(-2πi·j/4h).
				t1, t2, t3 := tw[2*j*st]*q1[j], tw[j*st]*q2[j], tw[3*j*st]*q3[j]
				s, d, u, v := q0[j]+t1, q0[j]-t1, t2+t3, t2-t3
				v = complex(imag(v), -real(v)) // −i·v
				q0[j], q1[j], q2[j], q3[j] = s+u, d+v, s-u, d-v
			}
		}
	}
}

// The seed's transforms, unchanged but for the kernel they call.

func seedForward(a []complex128) {
	if len(a) <= 1 {
		return
	}
	p := planFor(len(a))
	p.permute(a)
	p.seedButterflies(a)
}

func seedInverse(a []complex128) {
	if len(a) <= 1 {
		return
	}
	for i, v := range a {
		a[i] = complex(real(v), -imag(v))
	}
	seedForward(a)
	inv := 1 / float64(len(a))
	for i, v := range a {
		a[i] = complex(real(v)*inv, -imag(v)*inv)
	}
}

func seedRealForward(spec []complex128, x []float64) {
	m := len(spec) - 1
	p := planFor(m)
	z := spec[:m]
	pairs := len(x) / 2
	for j, r := range p.rev[:pairs] {
		z[r] = complex(x[2*j], x[2*j+1])
	}
	for _, r := range p.rev[pairs:] {
		z[r] = 0
	}
	if len(x)&1 == 1 {
		z[p.rev[pairs]] = complex(x[len(x)-1], 0)
	}
	p.seedButterflies(z)
	z0 := z[0]
	spec[0] = complex(real(z0)+imag(z0), 0)
	spec[m] = complex(real(z0)-imag(z0), 0)
	tw := planFor(m).half
	for k := 1; k <= m/2; k++ {
		a, b := z[k], z[m-k]
		e := complex(real(a)+real(b), imag(a)-imag(b))
		o := complex(imag(a)+imag(b), real(b)-real(a))
		wo := tw[k] * o
		spec[k] = complex(0.5*(real(e)+real(wo)), 0.5*(imag(e)+imag(wo)))
		spec[m-k] = complex(0.5*(real(e)-real(wo)), 0.5*(imag(wo)-imag(e)))
	}
}

func seedRealInverse(x []float64, spec []complex128) {
	m := len(spec) - 1
	z := spec[:m]
	sc := 0.5 / float64(m)
	x0, xm := real(spec[0]), real(spec[m])
	z[0] = complex(sc*(x0+xm), -sc*(x0-xm))
	tw := planFor(m).half
	for k := 1; k <= m/2; k++ {
		a, b := spec[k], spec[m-k]
		e := complex(real(a)+real(b), imag(a)-imag(b))
		d := complex(real(a)-real(b), imag(a)+imag(b))
		w := tw[k]
		o := complex(real(w), -imag(w)) * d
		z[k] = complex(sc*(real(e)-imag(o)), -sc*(imag(e)+real(o)))
		z[m-k] = complex(sc*(real(e)+imag(o)), -sc*(real(o)-imag(e)))
	}
	p := planFor(m)
	p.permute(z)
	p.seedButterflies(z)
	for j, v := range z {
		x[2*j], x[2*j+1] = real(v), -imag(v)
	}
}

func seedConvolve(x, y []float64) []float64 {
	outLen := len(x) + len(y) - 1
	if len(x)*len(y) <= 4096 {
		return Convolve(x, y) // the direct path has no kernel
	}
	n := NextPow2(outLen)
	fx := make([]complex128, n/2+1)
	fy := make([]complex128, n/2+1)
	seedRealForward(fx, x)
	seedRealForward(fy, y)
	for i := range fx {
		fx[i] *= fy[i]
	}
	out := make([]float64, n)
	seedRealInverse(out, fx)
	return out[:outLen]
}

// wild returns a float64 that is ±0, subnormal or normal with an exponent
// anywhere in ±e, each sign equally likely. Exponents stay far enough
// from overflow that no sum or product reaches Inf.
func wild(r *rand.Rand, e int) float64 {
	var v float64
	switch k := r.IntN(16); {
	case k == 0:
		v = 0
	case k == 1:
		v = float64(1+r.IntN(1<<20)) * math.SmallestNonzeroFloat64
	default:
		v = math.Ldexp(1+r.Float64(), r.IntN(2*e+1)-e)
	}
	if r.IntN(2) == 0 {
		v = -v
	}
	return v
}

func sameBits(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	for k := range want {
		g, w := got[k], want[k]
		if math.Float64bits(real(g)) != math.Float64bits(real(w)) ||
			math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
			t.Fatalf("%s: element %d is %v, the seed kernel gives %v", what, k, g, w)
		}
	}
}

func sameRealBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, the seed kernel gives %d", what, len(got), len(want))
	}
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s: element %d is %v, the seed kernel gives %v", what, k, got[k], want[k])
		}
	}
}

// namedKernel is one kernel set the tests hold to the seed's bits.
type namedKernel struct {
	name string
	k    *kernelSet
	// needs is what the set needs of the host, for the skip where k is
	// nil.
	needs string
}

// kernels lists every kernel set: the Go one and, where the CPU runs
// them, the AVX2 and AVX-512 ones (nil otherwise).
func kernels() []namedKernel {
	return []namedKernel{
		{"go", &goKernel, ""},
		{"avx2", vector, "GOARCH amd64, a CPU with AVX2 and an OS that saves YMM state"},
		{"avx512", vector512, "GOARCH amd64, a CPU with AVX-512F and DQ and an OS that saves opmask and ZMM state"},
	}
}

// use makes nk the kernel transforms run until the (sub)test ends, or
// skips, saying why, where there is no such kernel.
func (nk namedKernel) use(tb testing.TB) {
	if nk.k == nil {
		tb.Skipf("no %s kernel: it needs %s", nk.name, nk.needs)
	}
	old := kernel
	kernel = nk.k
	tb.Cleanup(func() { kernel = old })
}

// eachKernel runs f as one subtest per kernel set, "go", "avx2" and
// "avx512".
func eachKernel(t *testing.T, f func(t *testing.T)) {
	for _, nk := range kernels() {
		t.Run(nk.name, func(t *testing.T) {
			nk.use(t)
			f(t)
		})
	}
}

// seedConvolveSpectrum is ConvolveSpectrum as the seed's transforms
// compute it one at a time: RealForward, the product, RealInverse. It
// returns the samples ConvolveSpectrum packs.
func seedConvolveSpectrum(x []float64, g []complex128) []float64 {
	m := len(g) - 1
	spec := make([]complex128, m+1)
	seedRealForward(spec, x)
	for i := range spec {
		spec[i] *= g[i]
	}
	out := make([]float64, 2*m)
	seedRealInverse(out, spec)
	return out
}

// unpack returns the samples of ConvolveSpectrum's packed output.
func unpack(z []complex128) []float64 {
	out := make([]float64, 2*len(z))
	for j, v := range z {
		out[2*j], out[2*j+1] = real(v), -imag(v)
	}
	return out
}

// TestKernelBitIdenticalToSeed holds every transform, under each
// butterfly implementation, to the same transform built on the seed's
// strided Go kernel, bit for bit, for every N from 2 to 2¹⁵: both
// parities of log2 N, inputs with signed zeros, subnormals and wide
// exponents, and real inputs that fill, pad or oddly pad the transform.
// The fused ConvolveSpectrum is held to the seed's RealForward, product
// and RealInverse taken one at a time, through scratch left dirty.
func TestKernelBitIdenticalToSeed(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewPCG(28, 4))
		for n := 2; n <= 1<<15; n <<= 1 {
			a := make([]complex128, n)
			for i := range a {
				a[i] = complex(wild(r, 200), wild(r, 200))
			}
			got, want := append([]complex128(nil), a...), append([]complex128(nil), a...)
			Forward(got)
			seedForward(want)
			sameBits(t, "Forward", got, want)
			copy(got, a)
			copy(want, a)
			Inverse(got)
			seedInverse(want)
			sameBits(t, "Inverse", got, want)

			out, z := make([]complex128, n/2), make([]complex128, n/2)
			for _, lx := range []int{n, n - 1, n/2 + 1, 1} {
				x := make([]float64, lx)
				for i := range x {
					x[i] = wild(r, 200)
				}
				gotSpec, wantSpec := make([]complex128, n/2+1), make([]complex128, n/2+1)
				RealForward(gotSpec, x)
				seedRealForward(wantSpec, x)
				sameBits(t, "RealForward", gotSpec, wantSpec)

				g := make([]complex128, n/2+1)
				for i := range g {
					g[i] = complex(wild(r, 100), wild(r, 100))
				}
				for i := range out {
					out[i], z[i] = complex(math.NaN(), math.Inf(1)), complex(math.Inf(-1), math.NaN())
				}
				ConvolveSpectrum(out, z, x, g)
				sameRealBits(t, "ConvolveSpectrum", unpack(out), seedConvolveSpectrum(x, g))
			}

			// Output lengths n and n/2+1 both transform at n.
			for _, ly := range []int{n/2 + 1, 2} {
				x, y := make([]float64, n/2), make([]float64, ly)
				for i := range x {
					x[i] = wild(r, 100)
				}
				for i := range y {
					y[i] = wild(r, 100)
				}
				sameRealBits(t, "Convolve", Convolve(x, y), seedConvolve(x, y))
			}
		}
	})
}

// TestPlanForConcurrentFirstUse: goroutines that ask for a size no one
// has planned yet all get the one plan, and it is the plan a private
// build produces.
func TestPlanForConcurrentFirstUse(t *testing.T) {
	const n = 1 << 17 // larger than any size the other tests plan
	got := make([]*plan, 16)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = planFor(n)
		}()
	}
	wg.Wait()
	for g, p := range got {
		if p != got[0] {
			t.Fatalf("goroutine %d got a different plan", g)
		}
	}
	if !reflect.DeepEqual(got[0], newPlan(n)) {
		t.Fatal("the shared plan differs from a private build")
	}
}

// TestConvolvePackedMatchesConvolveSpectrum: input a caller packs itself
// through Reversal — pairs at rev[j], an odd last sample with a zero
// imaginary part, zero padding — is what ConvolveSpectrum's pack writes,
// and ConvolvePacked on it gives ConvolveSpectrum's output bit for bit,
// for every N from 2 to 2¹⁵, through scratch poisoned with NaN and Inf.
func TestConvolvePackedMatchesConvolveSpectrum(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewPCG(39, 1))
		for n := 2; n <= 1<<15; n <<= 1 {
			m := n / 2
			rev := Reversal(m)
			for _, lx := range []int{n, n - 1, n/2 + 1, 1} {
				x := make([]float64, lx)
				for i := range x {
					x[i] = wild(r, 200)
				}
				g := make([]complex128, m+1)
				for i := range g {
					g[i] = complex(wild(r, 100), wild(r, 100))
				}
				packed, z := make([]complex128, m), make([]complex128, m)
				for i := range packed {
					packed[i] = complex(math.NaN(), math.Inf(1))
					z[i] = complex(math.Inf(-1), math.NaN())
				}
				for j := range m {
					var a, b float64
					if 2*j < lx {
						a = x[2*j]
					}
					if 2*j+1 < lx {
						b = x[2*j+1]
					}
					packed[rev[j]] = complex(a, b)
				}
				planFor(m).pack(z, x)
				sameBits(t, "the packed input", packed, z)

				got, want := make([]complex128, m), make([]complex128, m)
				for i := range got {
					got[i], want[i] = complex(math.NaN(), math.Inf(1)), complex(math.Inf(-1), math.NaN())
				}
				ConvolvePacked(got, packed, g)
				ConvolveSpectrum(want, z, x, g)
				sameBits(t, "ConvolvePacked", got, want)
			}
		}
	})
}
