package specfn

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"dtr/internal/testutil"
)

// TestGammaPQPinned holds GammaP and GammaQ to the bits they had before
// the series and the continued fraction became shared with
// GammaLogQSum. testdata/gammapq_pinned.json was written by a throw-away
// test at that commit and is not regenerable from the code under test:
// both branches, the x = a+1 seam from either side, x = 0 and arguments
// deep enough in the tail that Q underflows.
func TestGammaPQPinned(t *testing.T) {
	raw, err := os.ReadFile("testdata/gammapq_pinned.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		A, X float64
		P, Q string
	}
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) < 150 {
		t.Fatalf("%d pinned rows", len(rows))
	}
	bits := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	for _, r := range rows {
		if p, q := bits(GammaP(r.A, r.X)), bits(GammaQ(r.A, r.X)); p != r.P || q != r.Q {
			t.Errorf("P, Q(%v, %v) = %s, %s; pinned %s, %s", r.A, r.X, p, q, r.P, r.Q)
		}
	}
}

// logQLoop is the per-bound loop GammaLogQSum replaces: Σ ln Q(a, r·c)
// over c > 0, −Inf at the first bound whose Q is zero or NaN.
func logQLoop(a, r float64, c []float64) float64 {
	var s float64
	for _, ci := range c {
		if ci <= 0 {
			continue
		}
		q := GammaQ(a, r*ci)
		if !(q > 0) {
			return math.Inf(-1)
		}
		s += math.Log(q)
	}
	return s
}

// tail reports whether some bound's Q is below the normal range.
func tail(a, r float64, c []float64) bool {
	for _, ci := range c {
		if ci > 0 && GammaQ(a, r*ci) < 0x1p-1022 {
			return true
		}
	}
	return false
}

func logs(c []float64) []float64 {
	l := make([]float64, len(c))
	for i, ci := range c {
		l[i] = math.Log(ci)
	}
	return l
}

// TestGammaLogQSumMatchesLoop: on random shapes in [0.05, 50] and bound
// vectors that mix both branches, zero bounds, and odd and even counts
// of continued-fraction bounds (so the lone last fraction runs too), the
// kernel agrees with the per-bound loop to 1e-12 relative.
func TestGammaLogQSumMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	cfOdd, cfEven, tails := 0, 0, 0
	for trial := 0; trial < 2000; trial++ {
		a := 0.05 * math.Pow(1000, rng.Float64())
		r := math.Exp(4 * (rng.Float64() - 0.5))
		c := make([]float64, rng.Intn(40))
		cf := 0
		for i := range c {
			switch u := rng.Float64(); {
			case u < 0.05:
				c[i] = 0
			case u < 0.5: // series side, x < a+1
				c[i] = (a + 1) * rng.Float64() / r
			default: // continued-fraction side, up to far in the tail
				c[i] = (a + 1) * (1 + 6*rng.ExpFloat64()) / r
				cf++
			}
		}
		if cf%2 == 1 {
			cfOdd++
		} else if cf > 0 {
			cfEven++
		}
		want := logQLoop(a, r, c)
		got := GammaLogQSum(a, r, c, logs(c))
		if math.IsInf(want, -1) != math.IsInf(got, -1) {
			t.Fatalf("trial %d (a=%g r=%g n=%d): kernel %g, loop %g", trial, a, r, len(c), got, want)
		}
		if tail(a, r, c) {
			tails++
			continue // the loop's own ln Q is off where Q is subnormal or zero
		}
		if math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
			t.Fatalf("trial %d (a=%g r=%g n=%d): kernel %.17g, loop %.17g", trial, a, r, len(c), got, want)
		}
	}
	if cfOdd < 100 || cfEven < 100 || tails > 200 {
		t.Fatalf("%d odd and %d even continued-fraction counts, %d trials in the tail", cfOdd, cfEven, tails)
	}
	t.Logf("%d odd and %d even continued-fraction counts, %d trials in the tail", cfOdd, cfEven, tails)
	if got := GammaLogQSum(2, 1, nil, nil); got != 0 {
		t.Errorf("empty sum = %g", got)
	}
	if got := GammaLogQSum(2, 1, []float64{0, 0}, []float64{math.Inf(-1), math.Inf(-1)}); got != 0 {
		t.Errorf("all-zero bounds sum to %g", got)
	}
}

// TestGammaLogQSumInfSet: the kernel is −Inf exactly where the per-bound
// loop is — some Q underflowed to zero or came out NaN — so a simplex
// fed by the kernel refuses the steps one fed by the loop refused, and
// no others. The scans cross Q's underflow edge on the continued-fraction
// side, and a shape small enough that 1 − P cancels to zero on the
// series side.
func TestGammaLogQSumInfSet(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	type tc struct {
		a, r float64
		c    []float64
	}
	var cases []tc
	for _, a := range []float64{0.05, 0.5, 1, 3, 30} {
		for x := 690.0; x < 790; x += 0.0625 {
			cases = append(cases, tc{a, 1, []float64{x}}, tc{a, 2, []float64{1, x / 2, 3, x / 2}})
		}
	}
	for _, a := range []float64{1e-12, 1e-15, 1e-16, 1e-17, 1e-18, 1e-20, 1e-300} {
		for _, x := range []float64{1e-3, 0.1, 0.5, 0.9} {
			cases = append(cases, tc{a, 1, []float64{x, 5, x}})
		}
	}
	cases = append(cases,
		tc{nan, 1, []float64{1}}, tc{nan, 1, []float64{0}}, tc{-1, 1, []float64{2}},
		tc{2, nan, []float64{1}}, tc{2, nan, []float64{0}}, tc{2, 1, []float64{nan}},
		tc{2, 1e300, []float64{1e300}}, tc{2, inf, []float64{1}},
		tc{1e130, 1, []float64{1e130, 2e130}}, tc{1e130, 1, []float64{0.5e130}},
	)
	infs := 0
	for _, k := range cases {
		want := logQLoop(k.a, k.r, k.c)
		got := GammaLogQSum(k.a, k.r, k.c, logs(k.c))
		if math.IsInf(want, -1) != math.IsInf(got, -1) {
			t.Errorf("a=%g r=%g c=%v: kernel %g, loop %g", k.a, k.r, k.c, got, want)
		}
		if math.IsInf(want, -1) {
			infs++
		}
	}
	if infs < len(cases)/4 || infs == len(cases) {
		t.Fatalf("%d of %d cases −Inf: the scans miss the edge", infs, len(cases))
	}
}

// TestGammaLogQSumSteps: the two-lane stepping leaves each fraction's h
// where stepping it alone does, so a sum over one bound is exactly
// ln of GammaQ's value wherever that is a normal number.
func TestGammaLogQSumSteps(t *testing.T) {
	for _, a := range []float64{0.3, 2, 17} {
		for _, x := range []float64{a + 1, a + 4, 3 * a, 60} {
			c := []float64{x, x, x}
			testutil.Almost(t, GammaLogQSum(a, 1, c, logs(c)), 3*math.Log(GammaQ(a, x)), 1e-14, "three equal bounds")
		}
	}
}
