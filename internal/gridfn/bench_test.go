package gridfn

import (
	"math"
	"testing"
)

func benchLattice(n int) *Lattice {
	return FromCDF(func(x float64) float64 {
		if x <= 0 {
			return 0
		}
		return 1 - math.Exp(-x)
	}, 40.0/float64(n), n)
}

func BenchmarkConvolve8k(b *testing.B) {
	l := benchLattice(1 << 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Convolve(l)
	}
}

func BenchmarkPrefixes50(b *testing.B) {
	l := benchLattice(1 << 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Prefixes(50)
	}
}

func BenchmarkMaxIndep(b *testing.B) {
	l := benchLattice(1 << 13)
	o := benchLattice(1 << 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.MaxIndep(o)
	}
}

// benchFold times the sweep's inner call: one Spectrum.Fold of an
// n-point lattice on a reused Work.
func benchFold(b *testing.B, n int) {
	l := benchLattice(n)
	p, w, dst := l.Spectrum(), NewWork(n), New(l.Dx, n)
	for b.Loop() {
		p.Fold(dst, l, w)
	}
}

func BenchmarkFold2k(b *testing.B) { benchFold(b, 1<<11) }
func BenchmarkFold4k(b *testing.B) { benchFold(b, 1<<12) }

// BenchmarkFoldMax2k times a sweep point's finish law: the race of a
// 2048-point lattice with another, folded with a spectrum in one
// Spectrum.FoldMax on a reused Work.
func BenchmarkFoldMax2k(b *testing.B) {
	l, z := benchLattice(1<<11), FromCDF(func(x float64) float64 { return min(x/20, 1) }, 40.0/(1<<11), 1<<11)
	p, w, dst := l.Spectrum(), NewWork(1<<11), New(l.Dx, 1<<11)
	for b.Loop() {
		p.FoldMax(dst, l, z, w)
	}
}
