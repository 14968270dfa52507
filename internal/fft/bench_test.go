package fft

import (
	"math/rand/v2"
	"testing"
)

// eachKernelB runs f as one sub-benchmark per kernel set, "go" and
// "avx2", so `make bench` records both.
func eachKernelB(b *testing.B, f func(b *testing.B)) {
	for _, nk := range kernels() {
		b.Run(nk.name, func(b *testing.B) {
			nk.use(b)
			f(b)
		})
	}
}

func benchConv(b *testing.B, n int) {
	r := rand.New(rand.NewPCG(1, 2))
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = r.Float64()
		y[i] = r.Float64()
	}
	eachKernelB(b, func(b *testing.B) {
		for b.Loop() {
			Convolve(x, y)
		}
	})
}

func BenchmarkConvolve1k(b *testing.B)  { benchConv(b, 1<<10) }
func BenchmarkConvolve8k(b *testing.B)  { benchConv(b, 1<<13) }
func BenchmarkConvolve64k(b *testing.B) { benchConv(b, 1<<16) }

// BenchmarkForward4k transforms the same input every iteration: run in
// place on its own output, the data would reach Inf and NaN within a
// hundred iterations and the loop would time those.
func BenchmarkForward4k(b *testing.B) {
	src := make([]complex128, 1<<12)
	for i := range src {
		src[i] = complex(float64(i%7), 0)
	}
	a := make([]complex128, len(src))
	eachKernelB(b, func(b *testing.B) {
		for b.Loop() {
			copy(a, src)
			Forward(a)
		}
	})
}

func BenchmarkRealForward4k(b *testing.B) {
	x := make([]float64, 1<<11) // a 2048-point lattice zero-padded to 4096
	for i := range x {
		x[i] = float64(i % 7)
	}
	spec := make([]complex128, 1<<11+1)
	eachKernelB(b, func(b *testing.B) {
		for b.Loop() {
			RealForward(spec, x)
		}
	})
}

// BenchmarkConvolveSpectrum4k is the transform pair of one fold of a
// 2048-point lattice: forward, product and inverse at 4096 points.
func BenchmarkConvolveSpectrum4k(b *testing.B) {
	x := make([]float64, 1<<11)
	for i := range x {
		x[i] = float64(i % 7)
	}
	g := make([]complex128, 1<<11+1)
	RealForward(g, x)
	out, z := make([]complex128, 1<<11), make([]complex128, 1<<11)
	eachKernelB(b, func(b *testing.B) {
		for b.Loop() {
			ConvolveSpectrum(out, z, x, g)
		}
	})
}
