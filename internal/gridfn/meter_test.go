package gridfn

import (
	"math"
	"testing"
)

// TestConvolveMeteredBitIdentical: metering one convolution — a fold
// whose audit goes to a Meter — must not change a single output bit of
// Convolve; the diagnostics observe the convolution, they do not
// participate in it.
func TestConvolveMeteredBitIdentical(t *testing.T) {
	a := FromCDF(expCDF(1), 0.01, 4096)
	b := FromCDF(expCDF(2.5), 0.01, 4096)

	plain := a.Convolve(b)
	var m Meter
	metered := New(a.Dx, a.Len())
	m.Observe(b.Spectrum().Fold(metered, a, NewWork(a.Len())))

	if plain.Tail != metered.Tail {
		t.Fatalf("tails differ: %v vs %v", plain.Tail, metered.Tail)
	}
	for i := range plain.M {
		if plain.M[i] != metered.M[i] {
			t.Fatalf("bin %d differs: %v vs %v", i, plain.M[i], metered.M[i])
		}
	}
	if m.Folds != 1 {
		t.Fatalf("meter counted %d folds, want 1", m.Folds)
	}
	// The residual of a well-resolved convolution is round-off, not a
	// real mass leak.
	if m.MaxResidual > 1e-9 {
		t.Fatalf("mass residual too large: %g", m.MaxResidual)
	}
	if m.MaxNegMass > 1e-9 {
		t.Fatalf("negative mass too large: %g", m.MaxNegMass)
	}
}

// TestPrefixesMeteredBitIdentical: attaching a Meter must not change a
// single output bit — the diagnostics observe the folds, they do not
// participate in them.
func TestPrefixesMeteredBitIdentical(t *testing.T) {
	e := FromCDF(expCDF(1), 0.01, 2048)

	plain := e.Prefixes(6)
	var m Meter
	metered := e.PrefixesMetered(6, &m)

	if len(plain) != len(metered) {
		t.Fatalf("length mismatch: %d vs %d", len(plain), len(metered))
	}
	for j := range plain {
		if plain[j].Tail != metered[j].Tail {
			t.Fatalf("prefix %d: tails differ", j)
		}
		for i := range plain[j].M {
			if plain[j].M[i] != metered[j].M[i] {
				t.Fatalf("prefix %d bin %d differs", j, i)
			}
		}
	}
	// Prefixes(k) folds once per power 1..k.
	if m.Folds != 6 {
		t.Fatalf("meter counted %d folds, want 6", m.Folds)
	}
	if m.SumResidual < 0 || math.IsNaN(m.SumResidual) {
		t.Fatalf("bad SumResidual %g", m.SumResidual)
	}
	// The residual of a well-resolved convolution is round-off, not a
	// real mass leak.
	if m.MaxResidual > 1e-9 {
		t.Fatalf("mass residual too large: %g", m.MaxResidual)
	}
	if m.MaxNegMass > 1e-9 {
		t.Fatalf("negative mass too large: %g", m.MaxNegMass)
	}
}

// TestMeterNilSafe: a nil meter must be accepted everywhere.
func TestMeterNilSafe(t *testing.T) {
	var m *Meter
	m.Observe(1, 1) // must not panic
	e := FromCDF(expCDF(1), 0.01, 1024)
	if got := e.PrefixesMetered(3, nil); len(got) != 4 {
		t.Fatalf("PrefixesMetered(3, nil) returned %d lattices", len(got))
	}
}
