package gridfn

import (
	"math"
	"math/rand/v2"
	"testing"

	"dtr/dist"
)

// requireSameLattice fails unless got equals want bit for bit.
func requireSameLattice(t *testing.T, what string, got, want *Lattice) {
	t.Helper()
	if got.Dx != want.Dx || got.Tail != want.Tail || len(got.M) != len(want.M) {
		t.Fatalf("%s: dx/tail/len %v/%v/%d, want %v/%v/%d", what, got.Dx, got.Tail, len(got.M), want.Dx, want.Tail, len(want.M))
	}
	for i := range want.M {
		if got.M[i] != want.M[i] {
			t.Fatalf("%s: bin %d is %v, want %v", what, i, got.M[i], want.M[i])
		}
	}
}

// randomLattice draws a sub-probability law with the given tail mass.
func randomLattice(r *rand.Rand, n int, tail float64) *Lattice {
	l := New(0.25, n)
	var sum float64
	for i := range l.M {
		l.M[i] = r.Float64()
		sum += l.M[i]
	}
	for i := range l.M {
		l.M[i] *= (1 - tail) / sum
	}
	l.Tail = tail
	return l
}

// naiveFold is the O(n²) reference for the kernel: the exact lattice
// convolution truncated at the horizon, everything else in the tail.
func naiveFold(x, y *Lattice) *Lattice {
	n := len(x.M)
	out := New(x.Dx, n)
	var beyond float64
	for i, xv := range x.M {
		for j, yv := range y.M {
			if i+j < n {
				out.M[i+j] += xv * yv
			} else {
				beyond += xv * yv
			}
		}
	}
	massX, massY := x.latticeMass(), y.latticeMass()
	out.Tail = beyond + x.Tail*(massY+y.Tail) + y.Tail*massX
	return out
}

// TestConvolveMatchesNaive: the real-transform kernel against the
// double loop on random lattices, odd and non-power-of-two lengths and
// non-zero tails included.
func TestConvolveMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 12))
	for _, n := range []int{1, 2, 7, 64, 100, 513, 1024} {
		for _, tails := range [][2]float64{{0, 0}, {0.2, 0}, {0.05, 0.3}} {
			x, y := randomLattice(r, n, tails[0]), randomLattice(r, n, tails[1])
			got, want := x.Convolve(y), naiveFold(x, y)
			for i := range want.M {
				if math.Abs(got.M[i]-want.M[i]) > 1e-15 {
					t.Fatalf("n=%d tails=%v bin %d: %g, naive %g", n, tails, i, got.M[i], want.M[i])
				}
			}
			if math.Abs(got.Tail-want.Tail) > 1e-14 {
				t.Fatalf("n=%d tails=%v tail: %g, naive %g", n, tails, got.Tail, want.Tail)
			}
			if math.Abs(got.Mass()-x.Mass()*y.Mass()) > 1e-14 {
				t.Fatalf("n=%d tails=%v: mass %g, want %g", n, tails, got.Mass(), x.Mass()*y.Mass())
			}
		}
	}
}

// TestFoldScratchAndAliasing: a fold's result may not depend on what the
// reused Work held, nor on dst being the moving operand itself.
func TestFoldScratchAndAliasing(t *testing.T) {
	r := rand.New(rand.NewPCG(13, 14))
	x, y := randomLattice(r, 300, 0.1), randomLattice(r, 300, 0.02)
	want := x.Convolve(y)

	w := NewWork(300)
	for i := range w.spec {
		w.spec[i] = complex(math.NaN(), math.Inf(1))
	}
	for i := range w.full {
		w.full[i] = math.NaN()
	}
	spec := y.Spectrum()
	for round := 0; round < 2; round++ { // second round: scratch dirty from the first
		dst := x.Clone()
		spec.Fold(dst, dst, w)
		requireSameLattice(t, "in-place fold through dirty scratch", dst, want)
	}
}

// TestFoldClampsAndAudits: the kernel never returns negative mass, and
// the audit it reports is round-off sized.
func TestFoldClampsAndAudits(t *testing.T) {
	// A law concentrated near zero leaves most output bins at round-off
	// level, where the raw inverse transform is negative about half the
	// time.
	l := FromCDF(expCDF(0.05), 0.01, 2048)
	var m Meter
	for _, p := range l.PrefixesMetered(8, &m) {
		for i, v := range p.M {
			if v < 0 {
				t.Fatalf("negative mass %g at bin %d", v, i)
			}
		}
	}
	if m.MaxNegMass == 0 {
		t.Fatal("the audit saw no negative round-off to clamp: the test lost its subject")
	}
	if m.MaxNegMass > 1e-12 || m.MaxResidual > 1e-12 {
		t.Fatalf("audit beyond round-off: neg %g residual %g", m.MaxNegMass, m.MaxResidual)
	}
}

// TestMassResidualNoWorseThanSeed pins the bench ledger's
// gridfn.mass_residual_max: a 50-fold prefix chain of the severe-delay
// Pareto service law on the lab_sweep lattice. The seed kernel measured
// 2.5e-14.
func TestMassResidualNoWorseThanSeed(t *testing.T) {
	var m Meter
	FromCDF(dist.NewPareto(2.5, 2).CDF, 2600.0/2047, 2048).PrefixesMetered(50, &m)
	t.Logf("worst mass residual over 50 folds: %g", m.MaxResidual)
	if m.MaxResidual > 2.5e-14 {
		t.Fatalf("mass residual %g exceeds the seed's 2.5e-14", m.MaxResidual)
	}
}

// CDF returns the cumulative masses C[i] = P(X ≤ i·Dx), tail excluded:
// the reference CDFAt is held to (its last caller outside the tests went
// with internal/nserver).
func (l *Lattice) CDF() []float64 {
	c := make([]float64, len(l.M))
	var run float64
	for i, m := range l.M {
		run += m
		c[i] = run
	}
	return c
}

// TestCDFAtMatchesCDF: CDFAt reads two entries of the running sum
// without building it, bit for bit.
func TestCDFAtMatchesCDF(t *testing.T) {
	r := rand.New(rand.NewPCG(15, 16))
	l := randomLattice(r, 777, 0.03)
	c := l.CDF()
	for _, x := range []float64{0, 0.1, 0.25, 1.7, 50.123, 193.9, float64(775) * 0.25, 193.99} {
		pos := x / l.Dx
		i := int(pos)
		want := c[i] + (pos-float64(i))*(c[i+1]-c[i])
		if got := l.CDFAt(x); got != want {
			t.Fatalf("CDFAt(%g) = %v, from CDF() %v", x, got, want)
		}
	}
	if got := l.CDFAt(l.Horizon()); got != 1-l.Tail {
		t.Fatalf("CDFAt(horizon) = %v, want %v", got, 1-l.Tail)
	}
	if l.CDFAt(-1) != 0 {
		t.Fatal("CDFAt of a negative time must be 0")
	}
}

// TestMaxIndepIntoMatchesMaxIndep: the fused walk returns
// MaxIndep(o).Mean() bit for bit, with or without storing the law, and
// what it stores is MaxIndep(o).
func TestMaxIndepIntoMatchesMaxIndep(t *testing.T) {
	r := rand.New(rand.NewPCG(17, 18))
	for _, tails := range [][2]float64{{0, 0}, {0.1, 0.004}} {
		a, b := randomLattice(r, 500, tails[0]), randomLattice(r, 500, tails[1])
		mx := a.MaxIndep(b)
		into := randomLattice(r, 500, 0.5) // dirty destination
		into.Dx = 99
		if got, want := a.MaxIndepInto(into, b), mx.Mean(); got != want {
			t.Fatalf("MaxIndepInto returned %v, MaxIndep().Mean() %v", got, want)
		}
		if got, want := a.MaxIndepInto(nil, b), mx.Mean(); got != want {
			t.Fatalf("MaxIndepInto(nil) returned %v, MaxIndep().Mean() %v", got, want)
		}
		requireSameLattice(t, "MaxIndepInto", into, mx)
		// In place: the destination is the receiver.
		if got, want := a.MaxIndepInto(a, b), mx.Mean(); got != want {
			t.Fatalf("MaxIndepInto in place returned %v, MaxIndep().Mean() %v", got, want)
		}
		requireSameLattice(t, "MaxIndepInto in place", a, mx)
	}
}
