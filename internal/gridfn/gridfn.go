// Package gridfn represents probability distributions of non-negative
// random variables as point masses on a uniform time lattice and provides
// the operations the analytic solvers need: convolution and its prefix
// chains (sums of independent service times), maxima and minima of
// independent variables (parallel server finish times, replicated
// copies), the two fused as one fold (a race followed by a batch) and
// expectation functionals.
//
// A sweep point's finish law is one walk in, the transform and one walk
// out: FoldMax forms the race on the fly, sums its mass and writes it
// straight into the transform's bit-reversed input, and the walk Fold
// shares clamps, stores and sums what the transform returns. Every sum
// runs in index order, so the fused walks give the bits the unfused
// steps give.
//
// A law is tabulated from its CDF at the points' upper half-cells,
// evaluated a slice at a time (CDFs): dist.Pareto's batch method computes
// four points at a time where the host has its lane kernel, bit for bit
// as its CDF does point by point.
//
// A Lattice carries the probability mass that falls beyond its horizon in
// the Tail field, so heavy-tailed inputs (the paper's Pareto models with
// infinite variance) degrade gracefully: every functional documents how
// the tail is treated, and callers can widen the horizon until Tail is
// negligible.
package gridfn

import (
	"fmt"
	"math"

	"dtr/internal/fft"
)

// Lattice is a sub-probability distribution on {0, Dx, 2·Dx, ...,
// (len(M)-1)·Dx} plus a Tail mass located beyond the horizon. The
// invariant sum(M) + Tail ≈ 1 holds for distributions of proper random
// variables (it is maintained, not enforced, so defective distributions
// are representable too).
type Lattice struct {
	Dx   float64
	M    []float64
	Tail float64
}

// New returns a zero lattice (no mass anywhere) with n points of step dx.
func New(dx float64, n int) *Lattice {
	if dx <= 0 || n < 1 {
		panic(fmt.Sprintf("gridfn: invalid lattice dx=%g n=%d", dx, n))
	}
	return &Lattice{Dx: dx, M: make([]float64, n)}
}

// FromCDF discretizes the distribution with the given CDF onto an
// n-point lattice of step dx by nearest-point rounding: the mass of cell
// [x_i - dx/2, x_i + dx/2) is assigned to lattice point x_i = i·dx.
// Rounding is symmetric, so means are preserved to O(dx²) for smooth
// distributions. Mass beyond the last half-cell goes to Tail.
func FromCDF(cdf func(float64) float64, dx float64, n int) *Lattice {
	l := New(dx, n)
	l.Tabulate(cdfFunc(cdf), 0, n)
	return l
}

// Law is what Tabulate reads of a distribution: its CDF.
type Law interface{ CDF(x float64) float64 }

// cdfFunc is a CDF given as a function.
type cdfFunc func(float64) float64

func (f cdfFunc) CDF(x float64) float64 { return f(x) }

// CDFs replaces every x of xs with law.CDF(x), bit for bit: through the
// law's own batch method where it has one (dist.Pareto's computes four
// points at a time), point by point otherwise.
func CDFs(law Law, xs []float64) {
	if b, ok := law.(interface{ CDFs([]float64) }); ok {
		b.CDFs(xs)
		return
	}
	for i, x := range xs {
		xs[i] = law.CDF(x)
	}
}

// Tabulate stores FromCDF's masses of law at the points from..to−1 of l,
// whose first `from` points already hold them, and its Tail once to
// reaches the last point: tabulating [0, n) in any number of steps
// stores FromCDF's lattice, bit for bit (a step after the first reads
// the CDF at its predecessor's upper half-cell again). The points'
// upper half-cells are written into M, turned into CDF values by CDFs
// and differenced in place, so nothing is allocated.
func (l *Lattice) Tabulate(law Law, from, to int) {
	prev := 0.0 // CDF at -dx/2 is 0 for non-negative variables
	if from > 0 {
		prev = law.CDF((float64(from-1) + 0.5) * l.Dx)
	}
	m := l.M[from:max(from, to)]
	for i := range m {
		m[i] = (float64(from+i) + 0.5) * l.Dx
	}
	CDFs(law, m)
	for i, c := range m {
		m[i] = c - prev
		prev = c
	}
	if to == len(l.M) {
		l.Tail = 1 - prev
		if l.Tail < 0 {
			l.Tail = 0
		}
	}
}

// PointMass returns a lattice with all mass at the lattice point nearest
// to x (Tail if x is beyond the horizon).
func PointMass(x, dx float64, n int) *Lattice {
	l := New(dx, n)
	i := int(math.Round(x / dx))
	if i < 0 {
		i = 0
	}
	if i >= n {
		l.Tail = 1
		return l
	}
	l.M[i] = 1
	return l
}

// Clone returns a deep copy of l.
func (l *Lattice) Clone() *Lattice {
	c := &Lattice{Dx: l.Dx, M: make([]float64, len(l.M)), Tail: l.Tail}
	copy(c.M, l.M)
	return c
}

// Len returns the number of lattice points.
func (l *Lattice) Len() int { return len(l.M) }

// Horizon returns the time coordinate of the last lattice point.
func (l *Lattice) Horizon() float64 { return float64(len(l.M)-1) * l.Dx }

// Mass returns the total probability mass including the tail.
func (l *Lattice) Mass() float64 { return l.latticeMass() + l.Tail }

// latticeMass returns the mass on the lattice points, the tail excluded.
func (l *Lattice) latticeMass() float64 {
	var s float64
	for _, m := range l.M {
		s += m
	}
	return s
}

// checkCompat panics unless the two lattices share a geometry. Mixing
// geometries is a programming error, not a data condition.
func (l *Lattice) checkCompat(o *Lattice) {
	if l.Dx != o.Dx || len(l.M) != len(o.M) {
		panic(fmt.Sprintf("gridfn: incompatible lattices (dx %g/%g, n %d/%d)",
			l.Dx, o.Dx, len(l.M), len(o.M)))
	}
}

// Meter accumulates per-fold numerical audit statistics over a sequence
// of convolutions: how many folds ran, the worst probability-mass
// conservation residual (an exact convolution preserves total mass, so
// |Σ output − massX·massY| is pure FFT round-off), and the worst
// negative mass produced by round-off. A Meter is plain state — not safe
// for concurrent use; the callers that meter (solver construction) are
// serial. Metering is purely observational: metered and unmetered
// convolutions return bit-identical lattices.
type Meter struct {
	// Folds counts metered convolutions.
	Folds int
	// MaxResidual is the worst |Σ full − massX·massY| over the folds.
	MaxResidual float64
	// MaxNegMass is the worst total negative mass (Σ|min(v, 0)|) any
	// single fold produced before clamping.
	MaxNegMass float64
}

// Observe folds one convolution's statistics into the meter.
func (m *Meter) Observe(residual, negMass float64) {
	if m == nil {
		return
	}
	m.Folds++
	if residual > m.MaxResidual {
		m.MaxResidual = residual
	}
	if negMass > m.MaxNegMass {
		m.MaxNegMass = negMass
	}
}

// Spectrum is a lattice law prepared as the fixed operand of repeated
// convolutions: the real-input transform of its masses, zero-padded to
// the linear-convolution length, with the operand's lattice mass and
// tail. It is immutable, so goroutines may share one.
type Spectrum struct {
	f          []complex128
	mass, tail float64
}

// Bytes is the spectrum's memory footprint, for byte-budgeted caches.
func (p *Spectrum) Bytes() int64 { return int64(16 * len(p.f)) }

// Work is the scratch of one fold on n-point lattices: the moving
// operand's packed transform and the fold's packed output. Fold
// overwrites every entry before reading it, so a result never depends on
// what a reused Work held. Not safe for concurrent use.
type Work struct {
	z, out []complex128
}

// specBins is the number of non-redundant bins of the real transform
// long enough for the 2n−1 points two n-point lattices convolve to.
func specBins(n int) int { return fft.NextPow2(2*n)/2 + 1 }

// NewWork returns fold scratch for n-point lattices.
func NewWork(n int) *Work {
	m := specBins(n) - 1
	return &Work{z: make([]complex128, m), out: make([]complex128, m)}
}

// Spectrum transforms l for use as a fold operand.
func (l *Lattice) Spectrum() *Spectrum {
	p := &Spectrum{f: make([]complex128, specBins(len(l.M))), mass: l.latticeMass(), tail: l.Tail}
	fft.RealForward(p.f, l.M)
	return p
}

// Fold is the convolution kernel: it stores in dst (which may be l) the
// distribution of X+Y for independent X ~ l and Y ~ p's operand on one
// geometry. fft.ConvolveSpectrum transforms l, multiplies by p and
// inverts in one pass; one walk over its packed output clamps negative
// round-off to zero and sums the mass kept on the lattice and the raw
// mass beyond the horizon, each sum sample by sample in index order (the
// two are independent chains and share the walk). dst.Tail takes what an
// exact convolution spreads beyond the horizon — the product of the
// lattice masses less the kept mass, so mass is conserved exactly — plus
// every combination involving either tail (a sum with a beyond-horizon
// component is beyond horizon, as lattice values are non-negative).
// Returned for the audit: the mass-conservation residual of the raw
// output, which is pure FFT round-off, and the negative mass clamped
// away.
func (p *Spectrum) Fold(dst, l *Lattice, w *Work) (residual, negMass float64) {
	p.checkFold(dst, l, w)
	massL := l.latticeMass()
	fft.ConvolveSpectrum(w.out, w.z, l.M, p.f)
	return p.unpack(dst, w.out, len(l.M), l.Dx, massL, l.Tail)
}

// FoldMax stores in dst (which may be a or z) the distribution of
// max(A, Z) + Y for independent A ~ a, Z ~ z and Y ~ p's operand on one
// geometry: a.MaxIndepInto(r, z) followed by p.Fold(dst, r, w), bit for
// bit, without the race r ever stored. One walk in index order forms the
// race's masses as MaxIndepInto does, sums its lattice mass and writes
// the pairs straight into the transform's bit-reversed input; then the
// fused transform and Fold's walk out.
func (p *Spectrum) FoldMax(dst, a, z *Lattice, w *Work) (residual, negMass float64) {
	a.checkCompat(z)
	p.checkFold(dst, a, w)
	n, in := len(a.M), w.z
	am, zm, rev := a.M, z.M[:len(a.M)], fft.Reversal(len(in))
	clear(in) // the padding, in one sequential sweep
	var ca, cz, prev, massR float64
	for j, r := range rev[:n/2] {
		ca += am[2*j]
		cz += zm[2*j]
		c := ca * cz
		v0 := c - prev
		ca += am[2*j+1]
		cz += zm[2*j+1]
		prev = ca * cz
		v1 := prev - c
		massR += v0
		massR += v1
		in[r] = complex(v0, v1)
	}
	if n&1 == 1 {
		ca += am[n-1]
		cz += zm[n-1]
		c := ca * cz
		massR += c - prev
		in[rev[n/2]] = complex(c-prev, 0)
		prev = c
	}
	fft.ConvolvePacked(w.out, in, p.f)
	return p.unpack(dst, w.out, n, a.Dx, massR, max(1-prev, 0))
}

// checkFold panics unless dst, l and the scratch fit p's geometry.
func (p *Spectrum) checkFold(dst, l *Lattice, w *Work) {
	n := len(l.M)
	if len(dst.M) != n || len(p.f) != len(w.z)+1 || len(w.z)+1 != specBins(n) {
		panic(fmt.Sprintf("gridfn: fold of %d points into %d with a %d-bin operand and %d-bin scratch",
			n, len(dst.M), len(p.f), len(w.z)+1))
	}
}

// unpack is the fold's walk over the packed output out of an n-point
// lattice of step dx with lattice mass massL and tail tailL: it stores
// the clamped masses and the tail in dst and returns the audit (see
// Fold). Sample 2j of the output is real(out[j]) and sample 2j+1 is
// −imag(out[j]); for odd n the last lattice point shares its entry with
// the first sample beyond the horizon.
func (p *Spectrum) unpack(dst *Lattice, out []complex128, n int, dx, massL, tailL float64) (residual, negMass float64) {
	half := n / 2
	lo, over := out[:half], out[half+n&1:]
	var kept, beyond float64
	if n&1 == 1 {
		beyond += -imag(out[half])
	}
	m, ov := dst.M[:2*half], over[:len(lo)]
	for j, c := range lo {
		a, b := real(c), -imag(c)
		if a < 0 {
			negMass -= a
			a = 0
		}
		if b < 0 {
			negMass -= b
			b = 0
		}
		m[2*j], m[2*j+1] = a, b
		kept += a
		kept += b
		beyond += real(ov[j])
		beyond += -imag(ov[j])
	}
	for _, c := range over[half:] {
		beyond += real(c)
		beyond += -imag(c)
	}
	if n&1 == 1 {
		a := real(out[half])
		if a < 0 {
			negMass -= a
			a = 0
		}
		dst.M[n-1] = a
		kept += a
	}
	exact := massL * p.mass
	dst.Dx = dx
	dst.Tail = max(exact-kept, 0) + tailL*(p.mass+p.tail) + p.tail*massL
	return math.Abs(kept - negMass + beyond - exact), negMass
}

// Convolve returns the distribution of X+Y for independent X ~ l, Y ~ o on
// the same geometry (see Fold for the tail treatment).
func (l *Lattice) Convolve(o *Lattice) *Lattice {
	l.checkCompat(o)
	out := New(l.Dx, len(l.M))
	o.Spectrum().Fold(out, l, NewWork(len(l.M)))
	return out
}

// Prefixes returns the distributions of the partial sums S_0, S_1, ..., S_k
// of i.i.d. copies of l, computed incrementally (k convolutions total).
// The incremental chain suits the policy-sweep access pattern: the sweep
// needs the total service time of every possible queue length.
func (l *Lattice) Prefixes(k int) []*Lattice {
	return l.PrefixesMetered(k, nil)
}

// PrefixesMetered is Prefixes with a numerical audit of every fold in
// the incremental chain (see Meter). The returned lattices are
// bit-identical to Prefixes'. The base law is transformed once and the
// scratch is shared along the chain, so a fold costs two transforms.
func (l *Lattice) PrefixesMetered(k int, meter *Meter) []*Lattice {
	out := make([]*Lattice, k+1)
	out[0] = PointMass(0, l.Dx, len(l.M))
	base, w := l.Spectrum(), NewWork(len(l.M))
	for i := 1; i <= k; i++ {
		out[i] = New(l.Dx, len(l.M))
		meter.Observe(base.Fold(out[i], out[i-1], w))
	}
	return out
}

// CDFAt returns P(X ≤ x), interpolating between lattice points (the
// lattice is a discrete approximation of a continuous law, so linear
// interpolation of the CDF is the natural reading).
func (l *Lattice) CDFAt(x float64) float64 {
	if x < 0 {
		return 0
	}
	pos := x / l.Dx
	// Compare before converting: int(pos) overflows for x ≥ 2⁶³·Dx, +Inf
	// and NaN.
	if !(pos < float64(len(l.M)-1)) {
		return 1 - l.Tail
	}
	i := int(pos)
	var c float64 // the running sum of the masses through i
	for _, m := range l.M[:i+1] {
		c += m
	}
	next := c + l.M[i+1]
	return c + (pos-float64(i))*(next-c)
}

// MaxIndep returns the distribution of max(X, Y) for independent X ~ l,
// Y ~ o on the same geometry: P(max ≤ x) = P(X ≤ x)·P(Y ≤ x). Any tail
// mass on either side forces the max beyond the horizon.
func (l *Lattice) MaxIndep(o *Lattice) *Lattice {
	out := New(l.Dx, len(l.M))
	l.MaxIndepInto(out, o)
	return out
}

// MaxIndepInto stores MaxIndep(o) in dst — a lattice of the same length,
// which may be l (a running maximum folds in place). A law the caller
// folds next goes through Spectrum.FoldMax instead, which never stores
// the race.
func (l *Lattice) MaxIndepInto(dst, o *Lattice) {
	l.checkCompat(o)
	var cl, co, prev float64
	om, dm := o.M[:len(l.M)], dst.M[:len(l.M)]
	for i, m := range l.M {
		cl += m
		co += om[i]
		c := cl * co
		dm[i] = c - prev
		prev = c
	}
	dst.Dx, dst.Tail = l.Dx, max(1-prev, 0)
}

// MaxIndepMean returns MaxIndep(o).Mean(), bit for bit, without storing
// the law; the two CDFs are running sums of one walk, and the moment's
// index runs as a float64 counter (exact below 2⁵³).
func (l *Lattice) MaxIndepMean(o *Lattice) float64 {
	l.checkCompat(o)
	var cl, co, prev, moment, x float64
	om := o.M[:len(l.M)]
	for i, m := range l.M {
		cl += m
		co += om[i]
		c := cl * co
		moment += x * (c - prev)
		prev = c
		x++
	}
	return moment*l.Dx + max(1-prev, 0)*l.Horizon()
}

// RaceMaxMean returns E[max(R₁ + s, R₂)] for the races R₁ = max(A₁, Z₁)
// and R₂ = max(A₂, Z₂) of independent A₁ ~ a1, Z₁ ~ z1, A₂ ~ a2, Z₂ ~ z2
// on one geometry and a finite shift s ≥ 0, each race's tail placed at
// the horizon as Mean places a law's. The races' CDFs are running
// products of the operands' running sums, as in MaxIndepExpect. The
// shift is q whole steps and a fraction f of one, so over the step
// [j, j+1) the shifted CDF reads R₁'s entries j−q−1 (for the first f of
// it) and j−q, and the integral of P(max > t) is exact. One walk, no
// store.
func (a1 *Lattice) RaceMaxMean(z1, a2, z2 *Lattice, s float64) float64 {
	a1.checkCompat(z1)
	a1.checkCompat(a2)
	a1.checkCompat(z2)
	n, pos := len(a1.M), s/a1.Dx
	q := int(pos)
	f := pos - float64(q)
	m1a, m1z, m2a, m2z := a1.M, z1.M[:n], a2.M[:n], z2.M[:n]
	// R₂'s entries below q meet R₁ at CDF 0: each step adds 1.
	var c1a, c1z, c2a, c2z float64
	for j := range min(q, n-1) {
		c2a += m2a[j]
		c2z += m2z[j]
	}
	var prev, sum float64
	both := max(n-1-q, 0)
	for i := 0; i < both; i++ {
		c1a += m1a[i]
		c1z += m1z[i]
		c := c1a * c1z
		c2a += m2a[i+q]
		c2z += m2z[i+q]
		sum += 1 - c2a*c2z*(c-f*(c-prev))
		prev = c
	}
	// Past the horizon R₂'s CDF is 1.
	for i := both; i < n-1; i++ {
		c1a += m1a[i]
		c1z += m1z[i]
		c := c1a * c1z
		sum += 1 - (c - f*(c-prev))
		prev = c
	}
	sum += f * (1 - prev)
	return (float64(q) + sum) * a1.Dx
}

// MinIndep returns the distribution of min(X, Y) for independent X ~ l,
// Y ~ o on the same geometry: P(min > x) = P(X > x)·P(Y > x). 1−C counts
// a law's tail as surviving every lattice point, so the min lands beyond
// the horizon only when both operands do.
func (l *Lattice) MinIndep(o *Lattice) *Lattice {
	l.checkCompat(o)
	out := New(l.Dx, len(l.M))
	var cl, co, prev float64
	for i, m := range l.M {
		cl += m
		co += o.M[i]
		c := 1 - (1-cl)*(1-co)
		out.M[i] = c - prev
		prev = c
	}
	out.Tail = max(1-prev, 0)
	return out
}

// Mean returns E[X·1{X ≤ horizon}] + Tail·horizon: the exact mean of the
// lattice part plus a lower-bound attribution of the tail at the horizon.
// For a proper distribution this is a lower bound on E[X]; callers that
// know the tail shape can add an excess-mean correction (MeanTailExcess in
// the dist package).
func (l *Lattice) Mean() float64 {
	var s float64
	for i, m := range l.M {
		s += float64(i) * m
	}
	return s*l.Dx + l.Tail*l.Horizon()
}

// Expect returns E[w(X)·1{X ≤ (len(w)−1)·Dx}] for weights w sampled at
// the first len(w) ≤ Len() lattice points, assigning the tail 0 (w is
// typically the survival function of an independent failure time: if the
// finish time fell beyond the horizon, survival to it is approximated as
// negligible). The sum runs in index order over the nonzero masses.
func (l *Lattice) Expect(w []float64) float64 {
	var s float64
	for i, m := range l.M[:len(w)] {
		if m != 0 {
			s += m * w[i]
		}
	}
	return s
}

// MaxIndepExpect returns E[w(max(X, Y))·1{max ≤ (len(w)−1)·Dx}] for
// independent X ~ l, Y ~ o and weights w at the first len(w) lattice
// points: the race's masses are formed as MaxIndepInto forms them and
// weighted as they are made, in one walk that stores nothing.
func (l *Lattice) MaxIndepExpect(o *Lattice, w []float64) float64 {
	l.checkCompat(o)
	var cl, co, prev, s float64
	lm, om := l.M[:len(w)], o.M[:len(w)]
	for i, wi := range w {
		cl += lm[i]
		co += om[i]
		c := cl * co
		s += (c - prev) * wi
		prev = c
	}
	return s
}
