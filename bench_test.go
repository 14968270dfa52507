package dtr_test

// One benchmark per table and figure of the paper's evaluation section,
// each running the same experiment code as cmd/dtrlab at quick fidelity
// (the full-fidelity reproduction is `dtrlab -fidelity full all`).
// Benchmark output doubles as a regression record of the experiment cost.

import (
	"testing"

	"dtr/internal/exper"
)

// benchFid is the fidelity used by the benchmarks: the quick preset with
// a slightly denser sweep so the curves retain their shape.
func benchFid() exper.Fidelity {
	fid := exper.Quick()
	fid.SweepStride = 10
	fid.MCReps = 300
	fid.TestbedReps = 5
	return fid
}

func BenchmarkFig1MeanTimeSweep(b *testing.B) {
	fid := benchFid()
	for i := 0; i < b.N; i++ {
		for _, d := range []exper.Delay{exper.LowDelay, exper.SevereDelay} {
			if _, err := exper.Fig12(d, true, fid); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig2ReliabilitySweep(b *testing.B) {
	fid := benchFid()
	for i := 0; i < b.N; i++ {
		for _, d := range []exper.Delay{exper.LowDelay, exper.SevereDelay} {
			if _, err := exper.Fig12(d, false, fid); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTable1PolicyOptimization(b *testing.B) {
	fid := benchFid()
	for i := 0; i < b.N; i++ {
		for _, d := range []exper.Delay{exper.LowDelay, exper.SevereDelay} {
			if _, err := exper.Table1(d, fid); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig3OptimizationSurface(b *testing.B) {
	fid := benchFid()
	for i := 0; i < b.N; i++ {
		if _, err := exper.Fig3(fid); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2MeanTime(b *testing.B) {
	fid := benchFid()
	for i := 0; i < b.N; i++ {
		if _, err := exper.Table2(true, fid); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Reliability(b *testing.B) {
	fid := benchFid()
	for i := 0; i < b.N; i++ {
		if _, err := exper.Table2(false, fid); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4FitPipeline(b *testing.B) {
	fid := benchFid()
	for i := 0; i < b.N; i++ {
		if _, err := exper.Fig4AB(fid); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4CTestbedValidation(b *testing.B) {
	fid := benchFid()
	fid.SweepStride = 25
	for i := 0; i < b.N; i++ {
		if _, err := exper.Fig4C(fid); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationGridStep(b *testing.B) {
	fid := benchFid()
	for i := 0; i < b.N; i++ {
		if _, err := exper.AblationGridStep(fid); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationAlgorithm1K(b *testing.B) {
	fid := benchFid()
	fid.MCReps = 200
	for i := 0; i < b.N; i++ {
		if _, err := exper.AblationK(fid); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDelaySweep(b *testing.B) {
	fid := benchFid()
	for i := 0; i < b.N; i++ {
		if _, err := exper.AblationDelaySweep(fid); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStalenessStudy(b *testing.B) {
	fid := benchFid()
	fid.MCReps = 300
	for i := 0; i < b.N; i++ {
		if _, err := exper.Staleness(fid); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionFamilies(b *testing.B) {
	fid := benchFid()
	for i := 0; i < b.N; i++ {
		if _, err := exper.Extensions(fid); err != nil {
			b.Fatal(err)
		}
	}
}
