package gridfn

import (
	"math"
	"testing"
	"testing/quick"

	"dtr/internal/testutil"
)

// expCDF returns the CDF of an exponential with the given mean.
func expCDF(mean float64) func(float64) float64 {
	return func(x float64) float64 {
		if x <= 0 {
			return 0
		}
		return 1 - math.Exp(-x/mean)
	}
}

func TestFromCDFMassAndMean(t *testing.T) {
	l := FromCDF(expCDF(2), 0.01, 4000) // horizon 40 = 20 means
	testutil.Almost(t, l.Mass(), 1, 1e-12, "total mass")
	testutil.Almost(t, l.Mean(), 2, 1e-3, "mean")
	if l.Tail > 1e-8 {
		t.Fatalf("tail too big: %g", l.Tail)
	}
}

func TestPointMass(t *testing.T) {
	l := PointMass(1.0, 0.25, 16)
	if l.M[4] != 1 {
		t.Fatalf("mass not at index 4: %v", l.M)
	}
	testutil.Almost(t, l.Mean(), 1, 1e-12, "point mass mean")
	// Beyond horizon goes to tail.
	l = PointMass(100, 0.25, 16)
	if l.Tail != 1 {
		t.Fatal("beyond-horizon point mass should be all tail")
	}
	// Negative x clamps to zero.
	l = PointMass(-3, 0.25, 16)
	if l.M[0] != 1 {
		t.Fatal("negative point mass should clamp to 0")
	}
}

func TestConvolveMeansAdd(t *testing.T) {
	a := FromCDF(expCDF(1), 0.01, 8000)
	b := FromCDF(expCDF(2.5), 0.01, 8000)
	c := a.Convolve(b)
	testutil.Almost(t, c.Mass(), 1, 1e-10, "convolved mass")
	testutil.Almost(t, c.Mean(), 3.5, 5e-3, "convolved mean")
}

func TestConvolveErlangExact(t *testing.T) {
	// Sum of 4 exponentials(mean 1) is Erlang(4): P(S <= x) known.
	e := FromCDF(expCDF(1), 0.005, 1<<13)
	s := e.Prefixes(4)[4]
	// Erlang-4 CDF at x: 1 - e^{-x} (1 + x + x^2/2 + x^3/6)
	for _, x := range []float64{1, 2, 4, 8} {
		want := 1 - math.Exp(-x)*(1+x+x*x/2+x*x*x/6)
		testutil.Almost(t, s.CDFAt(x), want, 2e-3, "erlang cdf")
	}
	testutil.Almost(t, s.Mean(), 4, 1e-2, "erlang mean")
}

// convPower is the reference for Prefixes: the k-fold convolution of l
// with itself by binary exponentiation — a different fold order from
// the incremental chain. k = 0 yields a unit point mass at zero.
func convPower(l *Lattice, k int) *Lattice {
	result := PointMass(0, l.Dx, len(l.M))
	base := l.Clone()
	for k > 0 {
		if k&1 == 1 {
			result = result.Convolve(base)
		}
		k >>= 1
		if k > 0 {
			base = base.Convolve(base)
		}
	}
	return result
}

func TestPrefixesMatchConvPower(t *testing.T) {
	e := FromCDF(expCDF(0.7), 0.01, 2048)
	pre := e.Prefixes(5)
	for k := 0; k <= 5; k++ {
		want := convPower(e, k)
		for i := 0; i < len(want.M); i += 97 {
			if math.Abs(pre[k].M[i]-want.M[i]) > 1e-9 {
				t.Fatalf("prefix %d differs at %d", k, i)
			}
		}
	}
}

func TestMaxIndep(t *testing.T) {
	a := FromCDF(expCDF(1), 0.01, 4096)
	b := FromCDF(expCDF(1), 0.01, 4096)
	m := a.MaxIndep(b)
	// E[max of two iid exp(1)] = 1.5 (by min/max decomposition).
	testutil.Almost(t, m.Mean(), 1.5, 5e-3, "mean of max")
	testutil.Almost(t, m.Mass(), 1, 1e-10, "mass of max")
	// CDF of max is product: spot check.
	testutil.Almost(t, m.CDFAt(2), a.CDFAt(2)*b.CDFAt(2), 1e-9, "cdf product")
}

func TestMaxWithPointMassIsMonotone(t *testing.T) {
	// max(X, c) where c beyond X's support: distribution is the point mass.
	a := FromCDF(expCDF(0.1), 0.01, 4096)
	c := PointMass(30, 0.01, 4096)
	m := a.MaxIndep(c)
	testutil.Almost(t, m.Mean(), 30, 1e-3, "max with large constant")
}

func TestMinIndep(t *testing.T) {
	a := FromCDF(expCDF(1), 0.01, 4096)
	b := FromCDF(expCDF(2), 0.01, 4096)
	m := a.MinIndep(b)
	// min of exp(1), exp(1/2) is exp(rate 1.5): mean 2/3.
	testutil.Almost(t, m.Mean(), 2.0/3, 5e-3, "mean of min")
	testutil.Almost(t, m.Mass(), 1, 1e-10, "mass of min")
	// Min/max identity: E[min] + E[max] = E[X] + E[Y].
	mx := a.MaxIndep(b)
	testutil.Almost(t, m.Mean()+mx.Mean(), a.Mean()+b.Mean(), 1e-2, "min+max identity")
}

func TestExpectSurvival(t *testing.T) {
	// E[e^{-X}] for X ~ exp(mean 1) is 1/2 (Laplace transform at 1).
	a := FromCDF(expCDF(1), 0.002, 1<<14)
	got := a.ExpectSurvival(func(x float64) float64 { return math.Exp(-x) })
	testutil.Almost(t, got, 0.5, 1e-3, "laplace transform")
}

func TestTailAccounting(t *testing.T) {
	// A short-horizon lattice of a long-tailed variable must track the tail.
	l := FromCDF(expCDF(10), 0.1, 32) // horizon 3.1, mean 10
	wantTail := math.Exp(-3.15 / 10)
	testutil.Almost(t, l.Tail, wantTail, 1e-2, "tail mass")
	testutil.Almost(t, l.Mass(), 1, 1e-12, "mass conservation with tail")
	// Convolution mass conservation with significant tails.
	c := l.Convolve(l)
	testutil.Almost(t, c.Mass(), 1, 1e-9, "conv mass with tails")
}

func TestConvolveMassConservationProperty(t *testing.T) {
	prop := func(m1, m2 uint8) bool {
		mean1 := 0.2 + float64(m1%50)/10
		mean2 := 0.2 + float64(m2%50)/10
		a := FromCDF(expCDF(mean1), 0.05, 512)
		b := FromCDF(expCDF(mean2), 0.05, 512)
		return math.Abs(a.Convolve(b).Mass()-1) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestIncompatibleLatticesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on geometry mismatch")
		}
	}()
	a := New(0.1, 16)
	b := New(0.2, 16)
	a.Convolve(b)
}

func TestInvalidConstructionPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 10) },
		func() { New(0.1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}
