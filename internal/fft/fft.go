// Package fft implements a planned power-of-two fast Fourier transform,
// its real-input variant by half-length complex packing, the fused
// transform–multiply–invert pass a convolution by a fixed spectrum needs
// (ConvolveSpectrum, or ConvolvePacked for input the caller packs itself),
// and the real linear convolution built on it.
//
// The Go standard library has no FFT; the direct convolution solver
// (internal/direct) needs hundreds of k-fold convolutions of service-time
// densities per policy sweep, which would be O(N^2) each without one.
//
// Every transform of one size shares one plan: a bit-reversal table and
// twiddle factors taken from math.Sincos per index (each within an ulp,
// where a running product would accumulate error along the table), laid
// out again as one row per pass. The butterflies merge two radix-2
// stages into one radix-4 pass, halving the walks over the data.
//
// There are three implementations of the kernels, one bit contract: the
// portable Go one and, on amd64, Go assembly for AVX2 (two complex lanes
// per register) and for AVX-512 (four lanes). Start-up picks the widest
// set the CPU has and the OS saves the registers of (CPUID and XGETBV,
// checked once). Each set performs the same float64 operations on the
// same operands in the same order, so every output is bit-identical
// whichever runs (kernel_test.go).
package fft

import (
	"math"
	"math/bits"
	"sync"
)

// plan holds what every transform of one length n shares.
type plan struct {
	rev  []int32      // bit-reversal permutation of 0..n-1
	half []complex128 // exp(-2πi·k/2n) for k ≤ n/2: the real split's twiddles
	// rows has one row per twiddled radix-4 pass of half-span h: row[j] =
	// (w², w, w³) of w = exp(-2πi·j/4h), as twiddles(3n/4, n) holds them.
	rows [][][3]complex128
	// quads is rows again, four j to an entry, for the AVX-512 pass
	// (nil for a row of h = 2).
	quads [][]twQuad
}

// twQuad is a row's entries j..j+3 as the AVX-512 pass reads them: for
// each of w², w and w³, the four real parts, each written twice, then the
// four imaginary parts, each written twice. They are copies of the
// row's values, so every twiddle keeps its bits.
type twQuad [3][2][8]float64

var plans [bits.UintSize]struct {
	once sync.Once
	p    *plan
}

// planFor returns the shared plan for length n, building it on first use.
func planFor(n int) *plan {
	if n < 1 || n&(n-1) != 0 {
		panic("fft: length is not a power of two")
	}
	e := &plans[bits.TrailingZeros(uint(n))]
	e.once.Do(func() { e.p = newPlan(n) })
	return e.p
}

// newPlan builds the plan for the power of two n.
func newPlan(n int) *plan {
	p := &plan{rev: make([]int32, n), half: twiddles(n/2+1, 2*n)}
	shift := bits.UintSize - bits.TrailingZeros(uint(n))
	for i := 1; i < n; i++ {
		p.rev[i] = int32(bits.Reverse(uint(i)) >> shift)
	}
	tw := twiddles(3*n/4, n)
	// The first twiddled pass has half-span 2 after a plain radix-2 stage
	// when log2(n) is odd, else 4.
	for h := 4 >> (bits.TrailingZeros(uint(n)) & 1); h < n; h <<= 2 {
		st, row := n/(4*h), make([][3]complex128, h)
		for j := range row {
			row[j] = [3]complex128{tw[2*j*st], tw[j*st], tw[3*j*st]}
		}
		p.rows = append(p.rows, row)
		p.quads = append(p.quads, splitQuads(row))
	}
	return p
}

// twiddles returns exp(-2πi·k/n) for k < count, each from math.Sincos.
func twiddles(count, n int) []complex128 {
	tw := make([]complex128, count)
	for k := range tw {
		sin, cos := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		tw[k] = complex(cos, sin)
	}
	return tw
}

// splitQuads lays row out four j to a twQuad; a row of fewer than four
// entries has none.
func splitQuads(row [][3]complex128) []twQuad {
	if len(row) < 4 {
		return nil
	}
	qs := make([]twQuad, len(row)/4)
	for j, w := range row {
		q, l := &qs[j/4], 2*(j%4)
		for t, v := range w {
			q[t][0][l], q[t][0][l+1] = real(v), real(v)
			q[t][1][l], q[t][1][l+1] = imag(v), imag(v)
		}
	}
	return qs
}

// permute applies the bit-reversal permutation in place.
func (p *plan) permute(a []complex128) {
	for i, r := range p.rev {
		if j := int(r); i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
}

// kernelSet is one implementation of the transform kernels: the three
// shapes of butterfly pass and ConvolvePacked's walk over the bins.
// Every implementation performs the same float64 operations on the same
// operands in the same order, so all agree bit for bit.
type kernelSet struct {
	// first is the unit-twiddle radix-4 first pass (even log2 n).
	first func(a []complex128)
	// blocks8 fuses the radix-2 first stage with the pass of half-span
	// 2 (odd log2 n); w is that pass's plan row.
	blocks8 func(a []complex128, w *[2][3]complex128)
	// twiddled is one radix-4 pass of half-span len(row) ≥ 4; quads is
	// the same row as splitQuads lays it out.
	twiddled func(a []complex128, row [][3]complex128, quads []twQuad)
	// split is ConvolvePacked's walk over k = 1..m/2.
	split func(out, z, g, tw []complex128, rev []int32, sc float64)
}

// goKernel is the portable implementation, the only one off amd64.
var goKernel = kernelSet{firstGo, blocks8Go, twiddledGo, splitGo}

// vector and vector512 are the AVX2 (kernel_amd64.s) and AVX-512
// (kernel512_amd64.s) implementations when the CPU and the OS run them,
// else nil; kernel is the implementation transforms use, the widest
// there is. Tests set kernel to hold every set to one result.
var (
	vector, vector512 *kernelSet
	kernel            = &goKernel
)

// butterflies runs the decimation-in-time passes of the forward
// transform over bit-reversed input. Each pass is a radix-4 butterfly
// merging the radix-2 stages of half-span h and 2h; the first pass has
// unit twiddles and is a plain radix-2 stage when log2(n) is odd. The
// twiddled passes read their plan rows in order; every output must stay
// bit-identical to reading tw at a stride (kernel_test.go).
func (p *plan) butterflies(a []complex128) {
	n := len(a)
	if n < 4 {
		if n == 2 {
			a[0], a[1] = a[0]+a[1], a[0]-a[1]
		}
		return
	}
	k, rows, quads := kernel, p.rows, p.quads
	if len(rows) > 0 && len(rows[0]) == 2 {
		k.blocks8(a, (*[2][3]complex128)(rows[0]))
		rows, quads = rows[1:], quads[1:]
	} else {
		k.first(a)
	}
	for i, row := range rows {
		k.twiddled(a, row, quads[i])
	}
}

// firstGo, blocks8Go, twiddledGo and splitGo are goKernel's members.

func firstGo(a []complex128) {
	for i := 0; i+3 < len(a); i += 4 {
		s, d, u, v := a[i]+a[i+1], a[i]-a[i+1], a[i+2]+a[i+3], a[i+2]-a[i+3]
		v = complex(imag(v), -real(v)) // −i·v
		a[i], a[i+1], a[i+2], a[i+3] = s+u, d+v, s-u, d-v
	}
}

// blocks8Go runs the radix-2 stage and the pass of half-span 2 together,
// one block of 8 at a time.
func blocks8Go(a []complex128, w *[2][3]complex128) {
	w0, w1 := w[0], w[1]
	for q := a; len(q) >= 8; q = q[8:] {
		b := (*[8]complex128)(q)
		c0, c1, c2, c3 := b[0]+b[1], b[0]-b[1], b[2]+b[3], b[2]-b[3]
		c4, c5, c6, c7 := b[4]+b[5], b[4]-b[5], b[6]+b[7], b[6]-b[7]
		t1, t2, t3 := w0[0]*c2, w0[1]*c4, w0[2]*c6
		s, d, u, v := c0+t1, c0-t1, t2+t3, t2-t3
		v = complex(imag(v), -real(v)) // −i·v
		b[0], b[2], b[4], b[6] = s+u, d+v, s-u, d-v
		t1, t2, t3 = w1[0]*c3, w1[1]*c5, w1[2]*c7
		s, d, u, v = c1+t1, c1-t1, t2+t3, t2-t3
		v = complex(imag(v), -real(v)) // −i·v
		b[1], b[3], b[5], b[7] = s+u, d+v, s-u, d-v
	}
}

func twiddledGo(a []complex128, row [][3]complex128, _ []twQuad) {
	h := len(row)
	for q := a; len(q) >= 4*h; q = q[4*h:] {
		q0, q1, q2, q3 := q[:len(row)], q[h:2*h], q[2*h:3*h], q[3*h:4*h]
		q1, q2, q3 = q1[:len(row)], q2[:len(row)], q3[:len(row)]
		for j := range row {
			w := &row[j] // w², w, w³ of w = exp(-2πi·j/4h)
			t1, t2, t3 := w[0]*q1[j], w[1]*q2[j], w[2]*q3[j]
			s, d, u, v := q0[j]+t1, q0[j]-t1, t2+t3, t2-t3
			v = complex(imag(v), -real(v)) // −i·v
			q0[j], q1[j], q2[j], q3[j] = s+u, d+v, s-u, d-v
		}
	}
}

// Forward computes the in-place forward DFT of a whose length must be a
// power of two. The transform is unnormalized:
// A[k] = Σ_n a[n]·exp(-2πi·kn/N).
func Forward(a []complex128) {
	if len(a) <= 1 {
		return
	}
	p := planFor(len(a))
	p.permute(a)
	p.butterflies(a)
}

// Inverse computes the in-place inverse DFT of a whose length must be a
// power of two, including the 1/N normalization (exact: N is a power of
// two). It is the forward transform between two conjugations.
func Inverse(a []complex128) {
	if len(a) <= 1 {
		return
	}
	for i, v := range a {
		a[i] = complex(real(v), -imag(v))
	}
	Forward(a)
	inv := 1 / float64(len(a))
	for i, v := range a {
		a[i] = complex(real(v)*inv, -imag(v)*inv)
	}
}

// RealForward writes the N/2+1 non-redundant bins of the length-N DFT of
// the real sequence x, zero-padded to N = 2·(len(spec)−1), into spec
// (the other bins are their conjugates: X[N−k] = conj X[k]). N must be
// a power of two ≥ max(2, len(x)). The even and odd samples travel as
// the real and imaginary parts of one half-length complex transform.
func RealForward(spec []complex128, x []float64) {
	m := len(spec) - 1
	if m < 1 || len(x) > 2*m {
		panic("fft: RealForward needs len(spec) = N/2+1 with N ≥ len(x)")
	}
	p := planFor(m)
	z := spec[:m]
	p.pack(z, x)
	p.butterflies(z)
	// Split Z = E + i·O into the transforms of the even and odd samples
	// and recombine: X[k] = E[k] + w^k·O[k], X[m−k] = conj(E[k] − w^k·O[k]).
	z0 := z[0]
	spec[0] = complex(real(z0)+imag(z0), 0)
	spec[m] = complex(real(z0)-imag(z0), 0)
	for k := 1; k <= m/2; k++ {
		a, b := z[k], z[m-k]
		e := complex(real(a)+real(b), imag(a)-imag(b)) // 2·E[k]
		o := complex(imag(a)+imag(b), real(b)-real(a)) // 2·O[k]
		wo := p.half[k] * o
		spec[k] = complex(0.5*(real(e)+real(wo)), 0.5*(imag(e)+imag(wo)))
		spec[m-k] = complex(0.5*(real(e)-real(wo)), 0.5*(imag(wo)-imag(e)))
	}
}

// pack writes x, zero-padded to 2·len(z), into z in bit-reversed order:
// the even samples as real parts, the odd ones as imaginary parts.
func (p *plan) pack(z []complex128, x []float64) {
	pairs := len(x) / 2
	if pairs < len(z) {
		clear(z) // the padding, in one sequential sweep
	}
	for j, r := range p.rev[:pairs] {
		z[r] = complex(x[2*j], x[2*j+1])
	}
	if len(x)&1 == 1 {
		z[p.rev[pairs]] = complex(x[len(x)-1], 0)
	}
}

// ConvolveSpectrum writes to out the real sequence of length N =
// 2·len(out) whose DFT is X·g, where X is the DFT of x zero-padded to N
// and g holds N/2+1 non-redundant bins: the circular convolution of x
// with g's sequence. The output is packed two samples to an entry:
// sample 2j is real(out[j]) and sample 2j+1 is −imag(out[j]). z, of
// length N/2, is scratch; out may not overlap z or g.
//
// It is the pack of x into z followed by ConvolvePacked.
func ConvolveSpectrum(out, z []complex128, x []float64, g []complex128) {
	m := len(g) - 1
	if m < 1 || len(out) != m || len(z) != m || len(x) > 2*m {
		panic("fft: ConvolveSpectrum needs len(out) = len(z) = N/2, len(g) = N/2+1 and N ≥ len(x)")
	}
	planFor(m).pack(z, x)
	ConvolvePacked(out, z, g)
}

// Reversal returns the bit-reversal permutation of length m, a power of
// two: a real sequence packs into m entries with samples 2j and 2j+1 at
// entry rev[j] (see ConvolvePacked). The table is shared; read it only.
func Reversal(m int) []int32 { return planFor(m).rev }

// ConvolvePacked is ConvolveSpectrum on a sequence the caller has packed
// into z: samples 2j and 2j+1 as the real and imaginary parts of
// z[Reversal(len(z))[j]], zero padding included. It overwrites z.
//
// It is RealForward, a product by g and the inverse split in one pass:
// run the forward butterflies on z, then one walk over k splits bins k
// and m−k, multiplies them by g and rebuilds the conjugated, pre-scaled
// packed spectrum straight into bit-reversed order for the second run
// of the butterflies. Each value is the same operations on the same
// operands in the same order as the transforms taken one at a time.
func ConvolvePacked(out, z, g []complex128) {
	m := len(g) - 1
	if m < 1 || len(out) != m || len(z) != m {
		panic("fft: ConvolvePacked needs len(out) = len(z) = N/2 and len(g) = N/2+1")
	}
	p := planFor(m)
	p.butterflies(z)
	sc := 0.5 / float64(m)
	z0 := z[0]
	y0 := complex(real(z0)+imag(z0), 0) * g[0]
	ym := complex(real(z0)-imag(z0), 0) * g[m]
	out[0] = complex(sc*(real(y0)+real(ym)), -sc*(real(y0)-real(ym)))
	kernel.split(out, z, g, p.half, p.rev, sc)
	p.butterflies(out)
}

func splitGo(out, z, g, tw []complex128, rev []int32, sc float64) {
	splitFrom(out, z, g, tw, rev, sc, 1)
}

// splitFrom is ConvolvePacked's walk over bins k and m−k for k from k0
// to m/2: z holds the forward butterflies' output, tw the plan's half
// table, rev the bit-reversal of length m and sc the scale 1/2m.
func splitFrom(out, z, g, tw []complex128, rev []int32, sc float64, k0 int) {
	m := len(z)
	for k := k0; k <= m/2; k++ {
		// Forward: X[k] = E[k] + w^k·O[k], X[m−k] = conj(E[k] − w^k·O[k]),
		// each times its bin of g. At k = m/2 the two are one bin, and
		// the second value is the one the unfused split stores last.
		a, b := z[k], z[m-k]
		e := complex(real(a)+real(b), imag(a)-imag(b)) // 2·E[k]
		o := complex(imag(a)+imag(b), real(b)-real(a)) // 2·O[k]
		w := tw[k]
		wo := w * o
		yb := complex(0.5*(real(e)-real(wo)), 0.5*(imag(wo)-imag(e))) * g[m-k]
		ya := yb
		if k < m-k {
			ya = complex(0.5*(real(e)+real(wo)), 0.5*(imag(e)+imag(wo))) * g[k]
		}
		// Inverse: rebuild Z[k] = E[k] + i·O[k] from the product,
		// conjugated and scaled by 1/N so the forward butterflies invert it.
		e = complex(real(ya)+real(yb), imag(ya)-imag(yb))  // 2·E[k]
		d := complex(real(ya)-real(yb), imag(ya)+imag(yb)) // 2·w^k·O[k]
		o = complex(real(w), -imag(w)) * d                 // 2·O[k]
		out[rev[k]] = complex(sc*(real(e)-imag(o)), -sc*(imag(e)+real(o)))
		out[rev[m-k]] = complex(sc*(real(e)+imag(o)), -sc*(real(o)-imag(e)))
	}
}

// NextPow2 returns the smallest power of two >= n (and at least 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Convolve returns the full linear convolution of x and y,
// out[k] = Σ_i x[i]·y[k-i], of length len(x)+len(y)-1.
// Inputs are untouched. Either input being empty yields nil.
func Convolve(x, y []float64) []float64 {
	if len(x) == 0 || len(y) == 0 {
		return nil
	}
	outLen := len(x) + len(y) - 1
	// Small problems: direct convolution beats FFT and is exact.
	if len(x)*len(y) <= 4096 {
		out := make([]float64, outLen)
		for i, xv := range x {
			if xv == 0 {
				continue
			}
			for j, yv := range y {
				out[i+j] += xv * yv
			}
		}
		return out
	}
	m := NextPow2(outLen) / 2
	g := make([]complex128, m+1)
	RealForward(g, y)
	z := make([]complex128, 2*m)
	ConvolveSpectrum(z[m:], z[:m], x, g)
	out := make([]float64, 2*m)
	for j, v := range z[m:] {
		out[2*j], out[2*j+1] = real(v), -imag(v)
	}
	return out[:outLen]
}
