package fit

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"dtr/dist"
	"dtr/internal/rngutil"
)

// fitAllRow is one row of testdata/fitall_pinned.json: one family's row
// of the paper's total-squared-error ranking as internal/stat's FitAll
// computed it at commit 70c3b63, the last one that had a second fitting
// stack — parameters, log-likelihood, KS and TSE as IEEE-754 bits with
// the decimal values (Params, then LogLik, KS, TSE) beside them. The
// file was written there by a throw-away test and is not regenerable
// from the code under test.
//
// The Shifted-Gamma rows are the exception the merge states: they hold
// what dist/fit's refined shift scan computed at that commit on the same
// sample, scored against the same histogram, and Old keeps FitAll's row.
// Where the two differ, FitAll's 41-point scan ended on its last
// candidate, shift = min·(1 − 1e−9) with a shape below one — a point
// where the density diverges at the smallest observation, so the
// likelihood grows without bound as the shift approaches it. Rows are in
// ranking order with the new Shifted-Gamma TSE.
type fitAllRow struct {
	Sample string    `json:"sample"`
	Name   string    `json:"name"`
	Params []string  `json:"params"`
	LogLik string    `json:"loglik"`
	KS     string    `json:"ks"`
	TSE    string    `json:"tse"`
	Values []float64 `json:"values"`
	Old    []float64 `json:"old,omitempty"`
}

// fitAllSamples draws the pinned samples: five laws at n = 200 (25 bins)
// and n = 3000 (60 bins), one seeded stream each.
func fitAllSamples() (names []string, samples [][]float64, bins []int) {
	laws := []struct {
		name string
		law  dist.Dist
	}{
		{"pareto", dist.Pareto{Xm: 3, Alpha: 2.614}},
		{"shifted-gamma", dist.NewShiftedGamma(0.7, 3.0, 5.9)},
		{"exponential", dist.NewExponential(2)},
		{"uniform", dist.NewUniform(0.5, 1.5)},
		{"shifted-exponential", dist.NewShiftedExponential(1, 3)},
	}
	for i, l := range laws {
		for j, sz := range [][2]int{{200, 25}, {3000, 60}} {
			r := rngutil.Stream(0xf1a11, 2*i+j)
			xs := make([]float64, sz[0])
			for k := range xs {
				xs[k] = l.law.Sample(r)
			}
			names = append(names, fmt.Sprintf("%s-%d", l.name, sz[0]))
			samples = append(samples, xs)
			bins = append(bins, sz[1])
		}
	}
	return names, samples, bins
}

// rankedValues flattens a ranking row the way the pinned file does.
func rankedValues(t testing.TB, r Ranked) []float64 {
	var p []float64
	switch v := r.Dist.(type) {
	case dist.Exponential:
		p = []float64{v.Rate}
	case dist.Pareto:
		p = []float64{v.Xm, v.Alpha}
	case dist.Uniform:
		p = []float64{v.A, v.B}
	case dist.ShiftedExponential:
		p = []float64{v.Shift, v.Rate}
	case dist.Gamma:
		p = []float64{v.K, v.Rate}
	case dist.ShiftedGamma:
		p = []float64{v.Shift, v.G.K, v.G.Rate}
	default:
		t.Fatalf("no pinned parameters for %T", r.Dist)
	}
	return append(p, r.LogLik, r.KS, r.TSE)
}

// TestFitAllPinned: RankTSE over the paper's six families reproduces the
// deleted FitAll of internal/stat — every number bit for bit, except the
// Exponential row, held to 1e-15 relative (fit's rate is n/Σx where
// stat's was 1/mean), and the Shifted-Gamma row, which is dist/fit's own
// at the parent. Row order is the ranking's.
func TestFitAllPinned(t *testing.T) {
	raw, err := os.ReadFile("testdata/fitall_pinned.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []fitAllRow
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	names, samples, bins := fitAllSamples()
	if len(want) != 6*len(names) {
		t.Fatalf("%d pinned rows for %d samples", len(want), len(names))
	}
	moved := 0
	for i, name := range names {
		got := RankTSE(samples[i], PaperFamilies(), bins[i])
		if len(got) != 6 {
			t.Fatalf("%s: %d rows, want 6", name, len(got))
		}
		for j, g := range got {
			w := want[6*i+j]
			if w.Sample != name || w.Name != g.Name {
				t.Fatalf("%s row %d is %s, pinned %s/%s", name, j, g.Name, w.Sample, w.Name)
			}
			vals := rankedValues(t, g)
			if len(vals) != len(w.Values) {
				t.Fatalf("%s/%s: %d values, pinned %d", name, g.Name, len(vals), len(w.Values))
			}
			if g.Params != len(vals)-3 || g.AIC != 2*float64(g.Params)-2*g.LogLik {
				t.Errorf("%s/%s: params %d, AIC %g", name, g.Name, g.Params, g.AIC)
			}
			if g.Name == "Exponential" {
				for k, v := range w.Values {
					if math.Abs(vals[k]-v) > 1e-15*math.Abs(v) {
						t.Errorf("%s/%s value %d = %.17g, pinned %.17g", name, g.Name, k, vals[k], v)
					}
				}
				continue
			}
			bits := append(append([]string(nil), w.Params...), w.LogLik, w.KS, w.TSE)
			for k, b := range bits {
				if bitsOf(vals[k]) != b {
					t.Errorf("%s/%s value %d = %.17g, pinned %.17g", name, g.Name, k, vals[k], w.Values[k])
				}
			}
			if len(w.Old) > 0 && w.Old[len(w.Old)-1] != w.Values[len(w.Values)-1] {
				moved++
			}
		}
	}
	t.Logf("%d of %d Shifted-Gamma rows differ from the old FitAll's", moved, len(names))
}

// TestRankTSEInputRule: the ranking answers the inputs the old FitAll
// panicked on, and a non-positive observation, with no rows.
func TestRankTSEInputRule(t *testing.T) {
	for name, got := range map[string][]Ranked{
		"empty":        RankTSE(nil, PaperFamilies(), 60),
		"zero bins":    RankTSE([]float64{1, 2, 3, 4, 5}, PaperFamilies(), 0),
		"non-positive": RankTSE([]float64{1, 2, 0, 4, 5}, PaperFamilies(), 10),
	} {
		if len(got) != 0 {
			t.Errorf("%s: %d rows, want none", name, len(got))
		}
	}
}

// TestFamiliesDefaultSetDidNotGrow: the two families RankTSE brought
// along are fitted only by name. The default selection set, and with it
// what the wire surfaces accept, is the six it always was.
func TestFamiliesDefaultSetDidNotGrow(t *testing.T) {
	want := []Family{"exponential", "gamma", "shifted-gamma", "pareto", "lognormal", "hyperexponential"}
	got := Families()
	if len(got) != len(want) {
		t.Fatalf("Families() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Families() = %v, want %v", got, want)
		}
	}
	for _, name := range []string{"uniform", "shifted-exponential"} {
		if _, err := ParseFamilies([]string{name}); err == nil {
			t.Errorf("ParseFamilies accepted %q", name)
		}
	}
}
