// Package fft implements an iterative radix-2 complex fast Fourier
// transform and the real linear convolution built on it.
//
// The Go standard library has no FFT; the direct convolution solver
// (internal/direct) needs hundreds of k-fold convolutions of service-time
// densities per policy sweep, which would be O(N^2) each without one.
package fft

import "math"

// Forward computes the in-place forward DFT of a whose length must be a
// power of two. The transform is unnormalized:
// A[k] = Σ_n a[n]·exp(-2πi·kn/N).
func Forward(a []complex128) {
	transform(a, false)
}

// Inverse computes the in-place inverse DFT of a whose length must be a
// power of two, including the 1/N normalization.
func Inverse(a []complex128) {
	transform(a, true)
	n := float64(len(a))
	for i := range a {
		a[i] = complex(real(a[i])/n, imag(a[i])/n)
	}
}

// transform runs the iterative Cooley–Tukey radix-2 FFT.
func transform(a []complex128, inverse bool) {
	n := len(a)
	if n <= 1 {
		return
	}
	if n&(n-1) != 0 {
		panic("fft: length is not a power of two")
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if !inverse {
			ang = -ang
		}
		wl := complex(math.Cos(ang), math.Sin(ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			half := length >> 1
			for j := 0; j < half; j++ {
				u := a[i+j]
				v := a[i+j+half] * w
				a[i+j] = u + v
				a[i+j+half] = u - v
				w *= wl
			}
		}
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
	fx := make([]complex128, n)
	fy := make([]complex128, n)
	for i, v := range x {
		fx[i] = complex(v, 0)
	}
	for i, v := range y {
		fy[i] = complex(v, 0)
	}
	Forward(fx)
	Forward(fy)
	for i := range fx {
		fx[i] *= fy[i]
	}
	Inverse(fx)
	out := make([]float64, outLen)
	for i := range out {
		out[i] = real(fx[i])
	}
	return out
}
