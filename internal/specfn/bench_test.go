package specfn

import "testing"

func BenchmarkGammaPSeries(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += GammaP(3.2, 2.0) // x < a+1: series branch
	}
	_ = sink
}

func BenchmarkGammaPContinuedFraction(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += GammaP(3.2, 9.0) // x >= a+1: continued fraction branch
	}
	_ = sink
}

// BenchmarkGammaLogQSum is one censored-gamma likelihood evaluation's
// bounds: 400 sorted bounds across both branches.
func BenchmarkGammaLogQSum(b *testing.B) {
	c := make([]float64, 400)
	for i := range c {
		c[i] = 0.05 + 12*float64(i)/float64(len(c))
	}
	lnc := logs(c)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += GammaLogQSum(2.3, 0.9, c, lnc)
	}
	_ = sink
}

func BenchmarkNormQuantile(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += NormQuantile(0.001 + 0.998*float64(i%997)/996)
	}
	_ = sink
}
