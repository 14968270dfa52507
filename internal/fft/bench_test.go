package fft

import (
	"math/rand/v2"
	"testing"
)

func benchConv(b *testing.B, n int) {
	r := rand.New(rand.NewPCG(1, 2))
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = r.Float64()
		y[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Convolve(x, y)
	}
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(a, src)
		Forward(a)
	}
}

func BenchmarkRealForward4k(b *testing.B) {
	x := make([]float64, 1<<11) // a 2048-point lattice zero-padded to 4096
	for i := range x {
		x[i] = float64(i % 7)
	}
	spec := make([]complex128, 1<<11+1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RealForward(spec, x)
	}
}

func BenchmarkRealInverse4k(b *testing.B) {
	src := make([]complex128, 1<<11+1)
	for i := range src {
		src[i] = complex(float64(i%7), float64(i%5))
	}
	spec := make([]complex128, len(src))
	x := make([]float64, 1<<12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(spec, src)
		RealInverse(x, spec)
	}
}
