package gridfn

import (
	"math"
	"math/rand"
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

// TestTabulateInStepsIsFromCDF: a lattice tabulated over [0, n) in
// random steps — each reading only the CDF, as a transfer lattice is
// extended when a reader needs more of it — holds FromCDF's masses and
// tail, bit for bit, and a step short of the last point leaves the tail
// alone.
func TestTabulateInStepsIsFromCDF(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 17, 2048} {
		cdf := expCDF(0.3 * float64(n))
		want := FromCDF(cdf, 0.5, n)
		got := New(0.5, n)
		got.Tail = -1
		for from := 0; from < n; {
			to := from + 1 + r.Intn(n-from)
			got.Tabulate(cdfFunc(cdf), from, to)
			if to < n && got.Tail != -1 {
				t.Fatalf("n %d: a step to %d set the tail", n, to)
			}
			from = to
		}
		for i := range want.M {
			if math.Float64bits(got.M[i]) != math.Float64bits(want.M[i]) {
				t.Fatalf("n %d: mass %d is %v, FromCDF's %v", n, i, got.M[i], want.M[i])
			}
		}
		if math.Float64bits(got.Tail) != math.Float64bits(want.Tail) {
			t.Fatalf("n %d: tail %v, FromCDF's %v", n, got.Tail, want.Tail)
		}
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
	w := make([]float64, a.Len())
	for i := range w {
		w[i] = math.Exp(-float64(i) * a.Dx)
	}
	testutil.Almost(t, a.Expect(w), 0.5, 1e-3, "laplace transform")
	// The race with a point mass at 0 is the law itself.
	zero := PointMass(0, a.Dx, a.Len())
	testutil.Almost(t, a.MaxIndepExpect(zero, w), a.Expect(w), 1e-15, "race with zero")
	testutil.Almost(t, a.MaxIndepExpect(zero, w[:100]), a.Expect(w[:100]), 1e-15, "truncated weights")
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

// TestRaceMaxMeanMatchesEnumeration: on random sub-probability lattices
// of 1 to 64 points, RaceMaxMean equals the double sum over the two
// races' masses — each race's tail at the horizon — of max(r₁ + s, r₂),
// at shifts of zero, whole and fractional steps, and past the horizon.
func TestRaceMaxMeanMatchesEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	law := func(n int, dx float64) *Lattice {
		l := New(dx, n)
		total := 0.0
		for i := range l.M {
			if r.Intn(3) > 0 {
				l.M[i] = r.Float64()
				total += l.M[i]
			}
		}
		scale := (1 - 0.3*r.Float64()) / max(total, 1e-300)
		for i := range l.M {
			l.M[i] *= scale
		}
		l.Tail = max(1-l.latticeMass(), 0)
		return l
	}
	// masses is the race's law with its tail moved onto the last point.
	masses := func(a, z *Lattice) []float64 {
		m := a.MaxIndep(z)
		m.M[len(m.M)-1] += m.Tail
		return m.M
	}
	for _, n := range []int{1, 2, 3, 7, 64} {
		dx := 0.1 + r.Float64()
		h := float64(n-1) * dx
		for _, s := range []float64{0, dx, 3 * dx, 0.37 * dx, 2.61 * dx, 0.5 * h, h, 1.4*h + 0.3*dx} {
			a1, z1, a2, z2 := law(n, dx), law(n, dx), law(n, dx), law(n, dx)
			p1, p2 := masses(a1, z1), masses(a2, z2)
			var want float64
			for i, x := range p1 {
				for j, y := range p2 {
					want += x * y * max(float64(i)*dx+s, float64(j)*dx)
				}
			}
			got := a1.RaceMaxMean(z1, a2, z2, s)
			if math.Abs(got-want) > 1e-12*max(want, 1) {
				t.Errorf("n %d, shift %g (dx %g): RaceMaxMean %v, enumeration %v", n, s, dx, got, want)
			}
		}
	}
}
