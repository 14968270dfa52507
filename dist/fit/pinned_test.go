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

// pinnedCase is one seeded sample behind testdata/fits_pinned.json.
type pinnedCase struct {
	name string
	law  dist.Dist
	n    int
	// cens is the share of observations that lose the race against an
	// independent censoring time: 0, 0.15 or 0.40.
	cens float64
	// raw: fit the raw sample as well as its sketch. The raw fitters cost
	// O(n) per likelihood evaluation, the sketch's never more than the
	// pseudo-sample, so the largest samples are sketch-only.
	raw bool
	// buckets is the sketch resolution (0 = default).
	buckets int
}

func pinnedCases() []pinnedCase {
	transfer := dist.NewShiftedGammaMean(0.55*1.207, 2, 1.207) // the paper's per-task transfer law
	return []pinnedCase{
		{name: "gamma2-50", law: dist.NewGamma(2, 4), n: 50, raw: true},
		{name: "shift-zero", law: dist.NewGamma(2, 4), n: 1000, cens: 0.15, raw: true}, // unshifted: the scan settles on its first cell
		{name: "gamma2-5k-c40", law: dist.NewGamma(2, 4), n: 5000, cens: 0.40, raw: true},
		{name: "gamma2-200k-c15", law: dist.NewGamma(2, 4), n: 200_000, cens: 0.15},
		{name: "gamma9-300-c40", law: dist.NewGamma(9, 10), n: 300, cens: 0.40, raw: true},
		{name: "gamma03-1500-c40", law: dist.NewGamma(0.3, 2), n: 1500, cens: 0.40, raw: true, buckets: 128},
		{name: "transfer-50-c40", law: transfer, n: 50, cens: 0.40, raw: true},
		{name: "transfer-200", law: transfer, n: 200, raw: true},
		{name: "transfer-1k-c40", law: transfer, n: 1000, cens: 0.40, raw: true},
		{name: "transfer-5k-c15", law: transfer, n: 5000, cens: 0.15, raw: true},
		{name: "transfer-20k-c40", law: transfer, n: 20_000, cens: 0.40},
		{name: "transfer-200k-c15", law: transfer, n: 200_000, cens: 0.15},
		{name: "farshift-1k", law: dist.NewShiftedGammaMean(10, 3, 12), n: 1000, raw: true},
		{name: "gamma08-2k", law: dist.NewGamma(0.8, 1), n: 2000, raw: true},
		// Shape below one piles mass on the support edge: the scan ends in
		// its last coarse cell, just under the smallest observation.
		{name: "shift-last-cell", law: dist.NewShiftedGammaMean(2, 0.7, 3), n: 2000, cens: 0.15, raw: true},
		{name: "lognormal-50-c15", law: dist.NewLogNormal(0.6, 3), n: 50, cens: 0.15, raw: true},
		{name: "lognormal-1k", law: dist.NewLogNormal(0.6, 3), n: 1000, raw: true},
		{name: "lognormal-5k-c40", law: dist.NewLogNormal(0.6, 3), n: 5000, cens: 0.40, raw: true},
		{name: "lognormal-200k-c40", law: dist.NewLogNormal(0.6, 3), n: 200_000, cens: 0.40},
		{name: "lognormal-wide-800-c15", law: dist.NewLogNormal(1.5, 1), n: 800, cens: 0.15, raw: true, buckets: 128},
		{name: "pareto-1k-c15", law: dist.NewPareto(2.614, 4.858), n: 1000, cens: 0.15, raw: true},
		{name: "pareto-20k", law: dist.NewPareto(2.614, 4.858), n: 20_000},
		{name: "exponential-500-c40", law: dist.NewExponential(300), n: 500, cens: 0.40, raw: true},
		{name: "hyperexp-3k-c15", law: dist.NewHyperExponential2(2, 4), n: 3000, cens: 0.15, raw: true},
	}
}

// draw generates the case's sample. The censoring time is the law's own
// quantile at a uniform level on [1−2·cens, 1], independent of the
// observation, so the share censored is cens in expectation.
func (c pinnedCase) draw(seed int) Sample {
	r := rngutil.Stream(0xf175, seed)
	var s Sample
	for i := 0; i < c.n; i++ {
		x := c.law.Sample(r)
		if c.cens > 0 {
			if b := c.law.Quantile(1 - 2*c.cens*r.Float64()); b < x {
				s.Cens = append(s.Cens, b)
				continue
			}
		}
		s.Obs = append(s.Obs, x)
	}
	return s
}

// pinnedFit is one row of testdata/fits_pinned.json: a censored MLE as
// the parent commit of the closed-form rewrite (3727c73) computed it —
// every parameter and the maximized log-likelihood as IEEE-754 bits,
// with the decimal values beside them for the reader. The file is not
// regenerable from the code under test on purpose: it is the record of
// the per-point likelihood loops the rewrite replaced.
type pinnedFit struct {
	Sample string    `json:"sample"`
	Source string    `json:"source"` // "raw" or "sketch"
	Family Family    `json:"family"`
	Params []string  `json:"params"` // gamma: k, rate; shifted-gamma: shift, k, rate; lognormal: mu, sigma
	LogLik string    `json:"loglik"`
	Values []float64 `json:"values"` // Params then LogLik, decimal
}

var pinnedFamilies = []Family{FamilyGamma, FamilyShiftedGam, FamilyLogNormal}

// pinnedParams flattens a fitted law of one of pinnedFamilies.
func pinnedParams(t testing.TB, d dist.Dist) []float64 {
	switch v := d.(type) {
	case dist.Gamma:
		return []float64{v.K, v.Rate}
	case dist.ShiftedGamma:
		return []float64{v.Shift, v.G.K, v.G.Rate}
	case dist.LogNormal:
		return []float64{v.Mu, v.Sigma}
	}
	t.Fatalf("no pinned parameters for %T", d)
	return nil
}

func bitsOf(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }

// pinnedRows fits every pinned family to every case, raw and sketched.
func pinnedRows(t testing.TB) []pinnedFit {
	var rows []pinnedFit
	for i, c := range pinnedCases() {
		sample := c.draw(i)
		stats := NewStats(c.buckets)
		for _, x := range sample.Obs {
			stats.Observe(x, false)
		}
		for _, b := range sample.Cens {
			stats.Observe(b, true)
		}
		type source struct {
			name string
			ch   Channel
		}
		sources := []source{{"sketch", stats}}
		if c.raw {
			sources = append(sources, source{"raw", sample})
		}
		for _, src := range sources {
			for _, f := range pinnedFamilies {
				r, err := src.ch.Fit(f)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", c.name, src.name, f, err)
				}
				row := pinnedFit{Sample: c.name, Source: src.name, Family: f, LogLik: bitsOf(r.LogLik)}
				for _, p := range pinnedParams(t, r.Dist) {
					row.Params = append(row.Params, bitsOf(p))
					row.Values = append(row.Values, p)
				}
				row.Values = append(row.Values, r.LogLik)
				rows = append(rows, row)
			}
		}
	}
	return rows
}

// TestFitsPinned: the closed-form exact-part likelihoods, the shift scan
// without its repeated centre, the walked pseudo-sample and the pruned
// shift scan must leave every fitted number where the parent's per-point
// loops put it, bit for bit: the simplex path is decided by comparisons
// the ≈1e-13 re-association of the sums does not flip, and the pruned
// scan keeps the candidate solving every one in full would keep.
func TestFitsPinned(t *testing.T) {
	raw, err := os.ReadFile("testdata/fits_pinned.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []pinnedFit
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := pinnedRows(t)
	if len(got) != len(want) || len(want) < 60 {
		t.Fatalf("%d fits, %d pinned", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Sample != w.Sample || g.Source != w.Source || g.Family != w.Family || len(g.Values) != len(w.Values) {
			t.Fatalf("row %d is %s/%s/%s, pinned %s/%s/%s", i, g.Sample, g.Source, g.Family, w.Sample, w.Source, w.Family)
		}
		same := g.LogLik == w.LogLik
		for j := range w.Params {
			same = same && g.Params[j] == w.Params[j]
		}
		if !same {
			t.Errorf("%s/%s/%s = %.17g, pinned %.17g", w.Sample, w.Source, w.Family, g.Values, w.Values)
		}
		if w.Family != FamilyShiftedGam || w.Source != "raw" {
			continue
		}
		// The two scan-edge cases must sit where their names say.
		switch shift := w.Values[0]; w.Sample {
		case "shift-zero":
			if shift != 0 {
				t.Errorf("shift-zero pinned at shift %g", shift)
			}
		case "shift-last-cell":
			if lo := 2.0; shift < lo*24/25 {
				t.Errorf("shift-last-cell pinned at shift %g, below the last coarse cell of [0, %g)", shift, lo)
			}
		}
	}
}
