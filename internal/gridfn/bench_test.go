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
