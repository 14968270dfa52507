package stat

import (
	"math"
	"testing"

	"dtr/internal/rngutil"
	"dtr/internal/testutil"
)

func TestMoments(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	testutil.Almost(t, Mean(xs), 3, 1e-15, "mean")
	testutil.Almost(t, Var(xs), 2.5, 1e-15, "variance")
	testutil.Almost(t, StdDev(xs), math.Sqrt(2.5), 1e-15, "stddev")
	testutil.Almost(t, Min(xs), 1, 0, "min")
	testutil.Almost(t, Max(xs), 5, 0, "max")
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Var([]float64{1})) {
		t.Fatal("degenerate inputs should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	testutil.Almost(t, Quantile(xs, 0), 1, 0, "q0")
	testutil.Almost(t, Quantile(xs, 1), 4, 0, "q1")
	testutil.Almost(t, Quantile(xs, 0.5), 2.5, 1e-15, "median")
	if !math.IsNaN(Quantile(nil, 0.5)) || !math.IsNaN(Quantile(xs, 2)) {
		t.Fatal("invalid quantile inputs should be NaN")
	}
	testutil.Almost(t, Quantile([]float64{7}, 0.3), 7, 0, "singleton")
}

func TestHistogramNormalization(t *testing.T) {
	r := rngutil.Stream(1, 0)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = r.Float64() * 4 // uniform on [0,4), density 0.25
	}
	h := NewHistogram(xs, 20)
	// Total mass: sum density*width = 1.
	var mass float64
	for i, d := range h.Density {
		mass += d * (h.Edges[i+1] - h.Edges[i])
	}
	testutil.Almost(t, mass, 1, 1e-12, "histogram mass")
	for i, d := range h.Density {
		if math.Abs(d-0.25) > 0.05 {
			t.Fatalf("bin %d density %g, want ~0.25", i, d)
		}
	}
	if len(h.Mids()) != 20 {
		t.Fatal("mids length")
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h := NewHistogram([]float64{2, 2, 2}, 4)
	var mass float64
	for i, d := range h.Density {
		mass += d * (h.Edges[i+1] - h.Edges[i])
	}
	testutil.Almost(t, mass, 1, 1e-12, "degenerate histogram mass")
	defer func() {
		if recover() == nil {
			t.Fatal("empty histogram should panic")
		}
	}()
	NewHistogram(nil, 4)
}

func TestKSDistance(t *testing.T) {
	// Sample drawn exactly at uniform quantiles: KS vs U(0,1) is 1/(2n)
	// at most... use a simple known case: single point at 0.5 vs U(0,1).
	d := KSDistance([]float64{0.5}, func(x float64) float64 {
		if x < 0 {
			return 0
		}
		if x > 1 {
			return 1
		}
		return x
	})
	testutil.Almost(t, d, 0.5, 1e-12, "one-point KS")
	// Perfect fit on a large sample should have small KS.
	r := rngutil.Stream(2, 0)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	d = KSDistance(xs, func(x float64) float64 {
		if x < 0 {
			return 0
		}
		if x > 1 {
			return 1
		}
		return x
	})
	if d > 0.01 {
		t.Fatalf("KS for perfect model too large: %g", d)
	}
}

func TestMeanCI(t *testing.T) {
	r := rngutil.Stream(3, 0)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = r.NormFloat64()*2 + 5
	}
	m, half := MeanCI(xs, 0.95)
	if math.Abs(m-5) > 3*half {
		t.Fatalf("mean %g not within CI of 5 (half=%g)", m, half)
	}
	// Half-width should be ~1.96*2/100 = 0.0392.
	testutil.Almost(t, half, 1.96*2/100, 0.06, "CI half-width")
	if _, h := MeanCI([]float64{1}, 0.95); !math.IsNaN(h) {
		t.Fatal("CI of singleton should be NaN")
	}
}

func TestProportionCI(t *testing.T) {
	p, half := ProportionCI(600, 1000, 0.95)
	testutil.Almost(t, p, 0.6, 1e-15, "proportion")
	testutil.Almost(t, half, 1.96*math.Sqrt(0.6*0.4/1000), 1e-3, "proportion half")
	// Extreme proportions get the continuity floor instead of zero width.
	_, half = ProportionCI(0, 1000, 0.95)
	if half <= 0 {
		t.Fatal("zero-success CI must have positive width")
	}
	if p, _ := ProportionCI(1, 0, 0.95); !math.IsNaN(p) {
		t.Fatal("0 trials should be NaN")
	}
}
