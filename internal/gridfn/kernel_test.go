package gridfn

import (
	"math"
	"math/rand/v2"
	"testing"

	"dtr/dist"
	"dtr/internal/fft"
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
// reused Work held, nor on dst being the moving operand itself. Both
// buffers of the Work start poisoned with NaN and Inf.
func TestFoldScratchAndAliasing(t *testing.T) {
	r := rand.New(rand.NewPCG(13, 14))
	x, y := randomLattice(r, 300, 0.1), randomLattice(r, 300, 0.02)
	want := x.Convolve(y)

	w := NewWork(300)
	for i := range w.z {
		w.z[i] = complex(math.NaN(), math.Inf(1))
	}
	for i := range w.out {
		w.out[i] = complex(math.Inf(-1), math.NaN())
	}
	spec := y.Spectrum()
	for round := 0; round < 2; round++ { // second round: scratch dirty from the first
		dst := x.Clone()
		spec.Fold(dst, dst, w)
		requireSameLattice(t, "in-place fold through dirty scratch", dst, want)
	}
}

// realInverse is the unfused inverse the fold ran before fft fused it
// with the forward transform and the product (fft.RealInverse, since
// removed): it writes to x the real sequence whose DFT has the
// non-redundant bins spec, destroying spec. The twiddles are the plan's
// per-index math.Sincos values.
func realInverse(x []float64, spec []complex128) {
	m := len(spec) - 1
	z := spec[:m]
	sc := 0.5 / float64(m)
	x0, xm := real(spec[0]), real(spec[m])
	z[0] = complex(sc*(x0+xm), -sc*(x0-xm))
	for k := 1; k <= m/2; k++ {
		a, b := spec[k], spec[m-k]
		e := complex(real(a)+real(b), imag(a)-imag(b))
		d := complex(real(a)-real(b), imag(a)+imag(b))
		sin, cos := math.Sincos(-2 * math.Pi * float64(k) / float64(2*m))
		o := complex(cos, -sin) * d
		z[k] = complex(sc*(real(e)-imag(o)), -sc*(imag(e)+real(o)))
		z[m-k] = complex(sc*(real(e)+imag(o)), -sc*(real(o)-imag(e)))
	}
	fft.Forward(z)
	for j, v := range z {
		x[2*j], x[2*j+1] = real(v), -imag(v)
	}
}

// unfusedFold is Fold as it ran with the transforms taken one at a time:
// RealForward, the product by the operand's bins, the inverse, then one
// walk over the real output. It is the reference the fused fold is held
// to bit for bit.
func unfusedFold(p *Spectrum, dst, l *Lattice) (residual, negMass float64) {
	n := len(l.M)
	spec := make([]complex128, len(p.f))
	full := make([]float64, 2*(len(p.f)-1))
	massL := l.latticeMass()
	fft.RealForward(spec, l.M)
	for i, f := range p.f {
		spec[i] *= f
	}
	realInverse(full, spec)
	var kept, beyond float64
	for i, v := range full[:n] {
		if v < 0 {
			negMass -= v
			v = 0
		}
		dst.M[i] = v
		kept += v
	}
	for _, v := range full[n:] {
		beyond += v
	}
	exact := massL * p.mass
	dst.Dx = l.Dx
	dst.Tail = max(exact-kept, 0) + l.Tail*(p.mass+p.tail) + p.tail*massL
	return math.Abs(kept - negMass + beyond - exact), negMass
}

// sameBits fails unless got and want are the same float64, bit for bit.
func sameBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s is %v, the unfused fold gives %v", what, got, want)
	}
}

// TestFoldMatchesUnfused holds Fold to unfusedFold bit for bit — every
// mass, the tail, the residual and the clamped negative mass — on
// lengths 1, 2, 3, odd lengths, 2048 and 4096, in place and not, through
// scratch poisoned first and then left dirty by the previous fold. The
// law concentrated near zero leaves most bins at round-off level, so the
// clamp runs.
func TestFoldMatchesUnfused(t *testing.T) {
	r := rand.New(rand.NewPCG(19, 20))
	clamped := false
	for _, n := range []int{1, 2, 3, 7, 255, 300, 2048, 4096} {
		w := NewWork(n)
		for i := range w.z {
			w.z[i], w.out[i] = complex(math.NaN(), math.Inf(1)), complex(math.Inf(-1), math.NaN())
		}
		laws := []*Lattice{randomLattice(r, n, 0.1), randomLattice(r, n, 0), FromCDF(expCDF(0.05), 0.01, n)}
		for i, l := range laws {
			p := laws[min(i+1, 2)].Spectrum() // the last law folds with itself
			for _, inPlace := range []bool{false, true} {
				want := New(l.Dx, n)
				wantRes, wantNeg := unfusedFold(p, want, l)
				src, dst := l.Clone(), randomLattice(r, n, 0.5)
				if inPlace {
					dst = src
				}
				res, neg := p.Fold(dst, src, w)
				for k := range want.M {
					sameBits(t, "a mass", dst.M[k], want.M[k])
				}
				sameBits(t, "the tail", dst.Tail, want.Tail)
				sameBits(t, "the residual", res, wantRes)
				sameBits(t, "the negative mass", neg, wantNeg)
				clamped = clamped || neg > 0
				if dst.Dx != l.Dx {
					t.Fatalf("n=%d: dx %v, want %v", n, dst.Dx, l.Dx)
				}
			}
		}
	}
	if !clamped {
		t.Fatal("no fold clamped negative round-off: the test lost part of its subject")
	}
}

// TestFoldMaxMatchesUnfused holds FoldMax to MaxIndepInto followed by
// Fold, bit for bit — every mass, the tail, the residual and the clamped
// negative mass — on the lengths TestFoldMatchesUnfused covers, into a
// dirty destination and in place over either operand, through scratch
// poisoned first and then left dirty by the previous fold. The race of
// two laws concentrated near zero is too, so the clamp runs.
func TestFoldMaxMatchesUnfused(t *testing.T) {
	r := rand.New(rand.NewPCG(39, 2))
	clamped := false
	for _, n := range []int{1, 2, 3, 7, 255, 300, 2048, 4096} {
		w, ref := NewWork(n), NewWork(n)
		for i := range w.z {
			w.z[i], w.out[i] = complex(math.NaN(), math.Inf(1)), complex(math.Inf(-1), math.NaN())
		}
		near := FromCDF(expCDF(0.05), 0.01, n)
		for _, c := range [][3]*Lattice{
			{randomLattice(r, n, 0.1), randomLattice(r, n, 0.004), randomLattice(r, n, 0)},
			{randomLattice(r, n, 0), randomLattice(r, n, 0), randomLattice(r, n, 0.2)},
			{near, FromCDF(expCDF(0.03), 0.01, n), near},
		} {
			a, z, p := c[0], c[1], c[2].Spectrum()
			want := New(a.Dx, n)
			a.MaxIndepInto(want, z)
			wantRes, wantNeg := p.Fold(want, want, ref)
			for into := range 3 {
				src, zz, dst := a.Clone(), z.Clone(), randomLattice(r, n, 0.5)
				dst.Dx = 99
				switch into {
				case 1:
					dst = src
				case 2:
					dst = zz
				}
				res, neg := p.FoldMax(dst, src, zz, w)
				for k := range want.M {
					sameBits(t, "a mass", dst.M[k], want.M[k])
				}
				sameBits(t, "the tail", dst.Tail, want.Tail)
				sameBits(t, "the residual", res, wantRes)
				sameBits(t, "the negative mass", neg, wantNeg)
				clamped = clamped || neg > 0
				if dst.Dx != a.Dx {
					t.Fatalf("n=%d: dx %v, want %v", n, dst.Dx, a.Dx)
				}
			}
		}
	}
	if !clamped {
		t.Fatal("no fold clamped negative round-off: the test lost part of its subject")
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
	// At and beyond the horizon the curve reads 1 − Tail, however far
	// beyond: an abscissa past 2⁶³ steps does not fit an index.
	for _, x := range []float64{l.Horizon(), 1e300, math.Inf(1)} {
		if got := l.CDFAt(x); got != 1-l.Tail {
			t.Fatalf("CDFAt(%g) = %v, want %v", x, got, 1-l.Tail)
		}
	}
	below := math.Nextafter(l.Horizon(), 0)
	pos := below / l.Dx
	i := int(pos)
	if want := c[i] + (pos-float64(i))*(c[i+1]-c[i]); l.CDFAt(below) != want {
		t.Fatalf("CDFAt just below the horizon = %v, from CDF() %v", l.CDFAt(below), want)
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
