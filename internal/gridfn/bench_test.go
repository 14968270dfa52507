package gridfn

import (
	"math"
	"testing"

	"dtr/dist"
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

// BenchmarkTabulatePareto2k tabulates one transfer law of lab_sweep's
// model (a Pareto law of shape 2.5 and mean 300 on 2048 points over 2600)
// through its batch CDF ("lanes": four points at a time where the host
// has dist's lane kernel) and point by point ("scalar"), in ns per point.
func BenchmarkTabulatePareto2k(b *testing.B) {
	law := dist.NewPareto(2.5, 300)
	l := New(2600.0/2047, 2048)
	for _, c := range []struct {
		name string
		law  Law
	}{{"scalar", cdfFunc(law.CDF)}, {"lanes", law}} {
		b.Run(c.name, func(b *testing.B) {
			for b.Loop() {
				l.Tabulate(c.law, 0, len(l.M))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(l.M)), "ns/point")
		})
	}
}
