package fft

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// eachKernelB runs f as one sub-benchmark per kernel set, "go", "avx2"
// and "avx512", so `make bench` records each.
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

// BenchmarkPasses2k times each kernel member on the 2048-point transform
// of a lab_sweep fold: the block-of-8 pass, each twiddled pass and the
// split walk, and the unit-twiddle first pass a transform of even log2 n
// opens with, on the same 2048 points. The passes run in place on zeros, which stay zeros: a
// pass's cost does not depend on its values when none is subnormal.
func BenchmarkPasses2k(b *testing.B) {
	const m = 1 << 11
	p, a := planFor(m), make([]complex128, m)
	r := rand.New(rand.NewPCG(1, 2))
	z, g, out := make([]complex128, m), make([]complex128, m+1), make([]complex128, m)
	for i := range z {
		z[i], g[i] = complex(r.Float64(), r.Float64()), complex(r.Float64(), r.Float64())
	}
	eachKernelB(b, func(b *testing.B) {
		b.Run("first", func(b *testing.B) {
			for b.Loop() {
				kernel.first(a)
			}
		})
		b.Run("blocks8", func(b *testing.B) {
			for b.Loop() {
				kernel.blocks8(a, (*[2][3]complex128)(p.rows[0]))
			}
		})
		for i, row := range p.rows[1:] {
			b.Run(fmt.Sprintf("twiddled_h%d", len(row)), func(b *testing.B) {
				for b.Loop() {
					kernel.twiddled(a, row, p.quads[i+1])
				}
			})
		}
		b.Run("split", func(b *testing.B) {
			sc := 0.5 / m
			for b.Loop() {
				kernel.split(out, z, g, p.half, p.rev, sc)
			}
		})
	})
}
