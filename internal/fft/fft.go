// Package fft implements a planned power-of-two fast Fourier transform,
// its real-input / real-output variant by half-length complex packing,
// and the real linear convolution built on them.
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
package fft

import (
	"math"
	"math/bits"
	"sync"
)

// plan holds what every transform of one length n shares.
type plan struct {
	rev []int32      // bit-reversal permutation of 0..n-1
	tw  []complex128 // tw[k] = exp(-2πi·k/n) for k < 3n/4
	// rows has one row per twiddled radix-4 pass of half-span h: row[j] =
	// (w², w, w³) of w = exp(-2πi·j/4h) = (tw[2j·st], tw[j·st], tw[3j·st]).
	rows [][][3]complex128
}

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
	p := &plan{rev: make([]int32, n), tw: make([]complex128, 3*n/4)}
	shift := bits.UintSize - bits.TrailingZeros(uint(n))
	for i := 1; i < n; i++ {
		p.rev[i] = int32(bits.Reverse(uint(i)) >> shift)
	}
	for k := range p.tw {
		sin, cos := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		p.tw[k] = complex(cos, sin)
	}
	// The first twiddled pass has half-span 2 after a plain radix-2 stage
	// when log2(n) is odd, else 4.
	for h := 4 >> (bits.TrailingZeros(uint(n)) & 1); h < n; h <<= 2 {
		st, row := n/(4*h), make([][3]complex128, h)
		for j := range row {
			row[j] = [3]complex128{p.tw[2*j*st], p.tw[j*st], p.tw[3*j*st]}
		}
		p.rows = append(p.rows, row)
	}
	return p
}

// permute applies the bit-reversal permutation in place.
func (p *plan) permute(a []complex128) {
	for i, r := range p.rev {
		if j := int(r); i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
}

// butterflies runs the decimation-in-time passes of the forward
// transform over bit-reversed input. Each pass is a radix-4 butterfly
// merging the radix-2 stages of half-span h and 2h; the first pass has
// unit twiddles and is a plain radix-2 stage when log2(n) is odd. The
// twiddled passes read their plan rows in order; every output must stay
// bit-identical to reading tw at a stride (kernel_test.go).
func (p *plan) butterflies(a []complex128) {
	n := len(a)
	rows := p.rows
	if n == 2 {
		a[0], a[1] = a[0]+a[1], a[0]-a[1]
		return
	}
	if len(rows) > 0 && len(rows[0]) == 2 {
		// Odd log2(n): the radix-2 stage and the pass of half-span 2 run
		// together, one block of 8 at a time.
		w0, w1 := rows[0][0], rows[0][1]
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
		rows = rows[1:]
	} else {
		for i := 0; i+3 < n; i += 4 {
			s, d, u, v := a[i]+a[i+1], a[i]-a[i+1], a[i+2]+a[i+3], a[i+2]-a[i+3]
			v = complex(imag(v), -real(v)) // −i·v
			a[i], a[i+1], a[i+2], a[i+3] = s+u, d+v, s-u, d-v
		}
	}
	for _, row := range rows {
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
	p.butterflies(z)
	// Split Z = E + i·O into the transforms of the even and odd samples
	// and recombine: X[k] = E[k] + w^k·O[k], X[m−k] = conj(E[k] − w^k·O[k]).
	z0 := z[0]
	spec[0] = complex(real(z0)+imag(z0), 0)
	spec[m] = complex(real(z0)-imag(z0), 0)
	tw := planFor(2 * m).tw
	for k := 1; k <= m/2; k++ {
		a, b := z[k], z[m-k]
		e := complex(real(a)+real(b), imag(a)-imag(b)) // 2·E[k]
		o := complex(imag(a)+imag(b), real(b)-real(a)) // 2·O[k]
		wo := tw[k] * o
		spec[k] = complex(0.5*(real(e)+real(wo)), 0.5*(imag(e)+imag(wo)))
		spec[m-k] = complex(0.5*(real(e)-real(wo)), 0.5*(imag(wo)-imag(e)))
	}
}

// RealInverse is the inverse of RealForward: it writes to x the real
// sequence of length N = len(x) = 2·(len(spec)−1) whose DFT has the
// non-redundant bins spec, including the 1/N normalization (exact). The
// imaginary parts of spec[0] and spec[N/2] are ignored. spec is
// destroyed.
func RealInverse(x []float64, spec []complex128) {
	m := len(spec) - 1
	if m < 1 || len(x) != 2*m {
		panic("fft: RealInverse needs len(x) = N and len(spec) = N/2+1")
	}
	// Rebuild the packed half-length spectrum Z[k] = E[k] + i·O[k],
	// conjugated and scaled so that a forward transform inverts it.
	z := spec[:m]
	sc := 0.5 / float64(m)
	x0, xm := real(spec[0]), real(spec[m])
	z[0] = complex(sc*(x0+xm), -sc*(x0-xm))
	tw := planFor(2 * m).tw
	for k := 1; k <= m/2; k++ {
		a, b := spec[k], spec[m-k]
		e := complex(real(a)+real(b), imag(a)-imag(b)) // 2·E[k]
		d := complex(real(a)-real(b), imag(a)+imag(b)) // 2·w^k·O[k]
		w := tw[k]
		o := complex(real(w), -imag(w)) * d // 2·O[k]
		z[k] = complex(sc*(real(e)-imag(o)), -sc*(imag(e)+real(o)))
		z[m-k] = complex(sc*(real(e)+imag(o)), -sc*(real(o)-imag(e)))
	}
	p := planFor(m)
	p.permute(z)
	p.butterflies(z)
	for j, v := range z {
		x[2*j], x[2*j+1] = real(v), -imag(v)
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
	n := NextPow2(outLen)
	fx := make([]complex128, n/2+1)
	fy := make([]complex128, n/2+1)
	RealForward(fx, x)
	RealForward(fy, y)
	for i := range fx {
		fx[i] *= fy[i]
	}
	out := make([]float64, n)
	RealInverse(out, fx)
	return out[:outLen]
}
