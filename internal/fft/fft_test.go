package fft

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestForwardKnownDFT(t *testing.T) {
	// DFT of [1,0,0,0] is [1,1,1,1].
	a := []complex128{1, 0, 0, 0}
	Forward(a)
	for i, v := range a {
		if math.Abs(real(v)-1) > 1e-12 || math.Abs(imag(v)) > 1e-12 {
			t.Fatalf("bin %d: %v", i, v)
		}
	}
	// DFT of [1,1,1,1] is [4,0,0,0].
	b := []complex128{1, 1, 1, 1}
	Forward(b)
	if math.Abs(real(b[0])-4) > 1e-12 {
		t.Fatalf("DC bin: %v", b[0])
	}
	for _, v := range b[1:] {
		if math.Abs(real(v)) > 1e-12 || math.Abs(imag(v)) > 1e-12 {
			t.Fatalf("non-DC bin: %v", v)
		}
	}
}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	n := 64
	a := make([]complex128, n)
	for i := range a {
		a[i] = complex(r.Float64()-0.5, r.Float64()-0.5)
	}
	want := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k*j) / float64(n)
			s += a[j] * complex(math.Cos(ang), math.Sin(ang))
		}
		want[k] = s
	}
	Forward(a)
	for k := range a {
		if d := a[k] - want[k]; math.Hypot(real(d), imag(d)) > 1e-9 {
			t.Fatalf("bin %d: got %v want %v", k, a[k], want[k])
		}
	}
}

func TestRoundTrip(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for _, n := range []int{1, 2, 8, 256, 1024} {
		a := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range a {
			a[i] = complex(r.NormFloat64(), r.NormFloat64())
			orig[i] = a[i]
		}
		Forward(a)
		Inverse(a)
		for i := range a {
			if d := a[i] - orig[i]; math.Hypot(real(d), imag(d)) > 1e-10 {
				t.Fatalf("n=%d idx=%d: got %v want %v", n, i, a[i], orig[i])
			}
		}
	}
}

func TestNonPowerOfTwoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two length")
		}
	}()
	Forward(make([]complex128, 6))
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Fatalf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func naiveConv(x, y []float64) []float64 {
	if len(x) == 0 || len(y) == 0 {
		return nil
	}
	out := make([]float64, len(x)+len(y)-1)
	for i := range x {
		for j := range y {
			out[i+j] += x[i] * y[j]
		}
	}
	return out
}

func TestConvolveSmallAndLargePaths(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	// Small path (direct) and large path (FFT) must agree with the naive sum.
	for _, sizes := range [][2]int{{3, 4}, {50, 60}, {300, 500}} {
		x := make([]float64, sizes[0])
		y := make([]float64, sizes[1])
		for i := range x {
			x[i] = r.Float64()
		}
		for i := range y {
			y[i] = r.Float64()
		}
		got := Convolve(x, y)
		want := naiveConv(x, y)
		if len(got) != len(want) {
			t.Fatalf("length %d want %d", len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("sizes %v idx %d: got %g want %g", sizes, i, got[i], want[i])
			}
		}
	}
	if Convolve(nil, []float64{1}) != nil || Convolve([]float64{1}, nil) != nil {
		t.Fatal("empty input should give nil")
	}
}

func TestConvolvePreservesMass(t *testing.T) {
	// Convolution of two densities has total mass = product of masses.
	prop := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
		x := make([]float64, 40+int(seed%100))
		y := make([]float64, 30+int(seed%77))
		var sx, sy float64
		for i := range x {
			x[i] = r.Float64()
			sx += x[i]
		}
		for i := range y {
			y[i] = r.Float64()
			sy += y[i]
		}
		var sc float64
		for _, v := range Convolve(x, y) {
			sc += v
		}
		return math.Abs(sc-sx*sy) < 1e-6*(1+sx*sy)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
