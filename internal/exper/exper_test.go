package exper

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"dtr/dist"
)

// cell parses a numeric table cell.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("non-numeric cell %q: %v", s, err)
	}
	return v
}

// column returns the numeric values of one column by header name.
func column(t *testing.T, tab *Table, name string) []float64 {
	t.Helper()
	idx := -1
	for i, c := range tab.Columns {
		if c == name {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatalf("column %q not in %v", name, tab.Columns)
	}
	var out []float64
	for _, row := range tab.Rows {
		out = append(out, cell(t, row[idx]))
	}
	return out
}

func TestCanonicalModelMeansMatch(t *testing.T) {
	for _, f := range dist.PaperFamilies() {
		for _, d := range []Delay{LowDelay, SevereDelay} {
			m := CanonicalModel(f, d, true)
			if math.Abs(m.Service[0].Mean()-2) > 1e-9 || math.Abs(m.Service[1].Mean()-1) > 1e-9 {
				t.Fatalf("%v service means wrong", f)
			}
			z := m.Transfer(10, 0, 1)
			if math.Abs(z.Mean()-10*d.TransferPerTask()) > 1e-9 {
				t.Fatalf("%v transfer mean wrong: %g", f, z.Mean())
			}
		}
	}
}

// TestFig1Shape verifies the qualitative content of Figure 1 at quick
// fidelity: under low delay the Markovian approximation tracks every
// model closely near moderate policies, and every curve is U-ish —
// reallocating some work beats reallocating none or everything.
func TestFig1Shape(t *testing.T) {
	fid := Quick()
	tab, err := Fig12(LowDelay, true, fid)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 5 {
		t.Fatalf("sweep too short: %d rows", len(tab.Rows))
	}
	exp := column(t, tab, "Exponential")
	par := column(t, tab, "Pareto 1")
	// Low delay: Markovian approximation errors stay small (paper: <3%)
	// at least over the interior of the sweep.
	for i := range exp {
		if e := math.Abs(exp[i]-par[i]) / par[i]; e > 0.08 {
			t.Fatalf("low-delay Markovian error %.1f%% at row %d", 100*e, i)
		}
	}
	// U-shape: some interior point beats both endpoints.
	minv := math.Inf(1)
	for _, v := range par[1 : len(par)-1] {
		minv = math.Min(minv, v)
	}
	if minv >= par[0] || minv >= par[len(par)-1] {
		t.Fatalf("mean-time curve not U-shaped: ends %g, %g, min %g", par[0], par[len(par)-1], minv)
	}
}

// TestFig1SevereMarkovianErrorGrows: the severe-delay sweep must show a
// larger worst-case Markovian error than the low-delay sweep (the paper's
// 3% → 15% story for the mean).
func TestFig1SevereMarkovianErrorGrows(t *testing.T) {
	fid := Quick()
	worst := func(d Delay) float64 {
		tab, err := MarkovianError(d, true, fid)
		if err != nil {
			t.Fatal(err)
		}
		w := 0.0
		for _, row := range tab.Rows {
			w = math.Max(w, cell(t, row[1]))
		}
		return w
	}
	low, severe := worst(LowDelay), worst(SevereDelay)
	if severe <= low {
		t.Fatalf("Markovian error should grow with delay: low %.2f%%, severe %.2f%%", low, severe)
	}
}

// TestFig2ReliabilityRange: reliabilities are probabilities and the
// severe-delay Markovian reliability error exceeds the low-delay one
// (paper: up to 65%).
func TestFig2Shape(t *testing.T) {
	fid := Quick()
	tab, err := Fig12(SevereDelay, false, fid)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range dist.PaperFamilies() {
		for _, v := range column(t, tab, f.String()) {
			if v < 0 || v > 1 {
				t.Fatalf("reliability out of range: %g", v)
			}
		}
	}
}

// TestTable1SevereDegradation: under severe delay, applying the
// exponential-derived policy to a heavy-tailed model must cost
// performance (the paper reports ~10–40%); under low delay the cost is
// small.
func TestTable1SevereDegradation(t *testing.T) {
	fid := Quick()
	fid.GridN = 1 << 12 // Table I needs some resolution to rank policies
	sev, err := Table1(SevereDelay, fid)
	if err != nil {
		t.Fatal(err)
	}
	if len(sev.Rows) != 5 {
		t.Fatalf("Table I rows: %d", len(sev.Rows))
	}
	// Row order: Exponential first (degradation 0 by construction).
	expDegr := cell(t, sev.Rows[0][4])
	if expDegr > 1e-6 {
		t.Fatalf("exponential self-degradation should be 0, got %g", expDegr)
	}
	// Mean values must be positive and degradations non-negative.
	for _, row := range sev.Rows {
		if cell(t, row[2]) <= 0 {
			t.Fatalf("non-positive optimal mean: %v", row)
		}
		if cell(t, row[4]) < -1e-6 {
			t.Fatalf("negative degradation (optimizer missed the optimum): %v", row)
		}
	}
}

// TestFig3Optimum: the calibrated severe-delay Pareto-1 scenario must
// place the mean-time optimum near the paper's (L12=32, L21=1) with
// T̄* ≈ 140 s, and the 180 s QoS optimum near 0.99.
func TestFig3Optimum(t *testing.T) {
	fid := Quick()
	fid.GridN = 1 << 12
	fid.SweepStride = 25
	tabs, err := Fig3(fid)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 {
		t.Fatal("Fig3 should produce two tables")
	}
	notes := strings.Join(tabs[0].Notes, " ")
	// Parse "T̄* = X s at (L12=Y, ..." out of the note.
	var tstar float64
	var l12 int
	if err := parseFig3Note(notes, &tstar, &l12); err != nil {
		t.Fatalf("could not parse optimum from note %q: %v", notes, err)
	}
	if tstar < 120 || tstar > 165 {
		t.Fatalf("severe-delay optimum T̄* = %g, want ≈140 (paper: 140.11)", tstar)
	}
	if l12 < 24 || l12 > 42 {
		t.Fatalf("optimal L12 = %d, want ≈32", l12)
	}
}

// parseFig3Note extracts T̄* and L12 from the Fig3(a) optimum note.
func parseFig3Note(notes string, tstar *float64, l12 *int) error {
	i := strings.Index(notes, "T̄* = ")
	j := strings.Index(notes, "L12=")
	if i < 0 || j < 0 {
		return errors.New("markers not found")
	}
	if _, err := fmt.Sscanf(notes[i:], "T̄* = %f", tstar); err != nil {
		return err
	}
	if _, err := fmt.Sscanf(notes[j:], "L12=%d", l12); err != nil {
		return err
	}
	return nil
}
