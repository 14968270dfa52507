package fit

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"dtr/dist"
	"dtr/internal/stat"
)

// shiftedGammaReference is ShiftedGamma as it was before the scan's
// candidates were tightened together: every candidate solved to the full
// tolerance, a strictly better one kept. It is the oracle the pruned scan
// must reproduce bit for bit.
func shiftedGammaReference(s Sample) (dist.ShiftedGamma, error) {
	if err := s.check(); err != nil {
		return dist.ShiftedGamma{}, err
	}
	if len(s.Obs) < 4 {
		return dist.ShiftedGamma{}, fmt.Errorf("fit: shifted-gamma fit needs >= 4 exact observations")
	}
	lo := stat.Min(s.Obs)

	bestLL := math.Inf(-1)
	var best dist.ShiftedGamma
	found := false
	try := func(shift float64) {
		if res, ok := residuals(s, shift); ok {
			if g, ll, err := censoredGamma(res); err == nil && ll > bestLL {
				bestLL, best, found = ll, dist.ShiftedGamma{Shift: shift, G: g}, true
			}
		}
	}
	const coarse = 24
	for i := 0; i <= coarse; i++ {
		try(lo * (float64(i) / float64(coarse+1)))
	}
	if !found {
		return dist.ShiftedGamma{}, fmt.Errorf("fit: no admissible shifted-gamma fit")
	}
	center := best.Shift
	step := lo / float64(coarse+1)
	for i := -4; i <= 4; i++ {
		if sh := center + float64(i)*step/5; i != 0 && sh >= 0 && sh < lo {
			try(sh)
		}
	}
	return best, nil
}

// countEvals returns how many objective evaluations the simplex
// searches make while fn runs.
func countEvals(fn func()) int64 {
	var n atomic.Int64
	evalHook = func(k int) { n.Add(int64(k)) }
	defer func() { evalHook = nil }()
	fn()
	return n.Load()
}

// scanLaws are the laws of the differential corpus.
var scanLaws = []struct {
	name string
	law  dist.Dist
}{
	{"gamma0.4", dist.NewGamma(0.4, 2)},
	{"gamma2", dist.NewGamma(2, 4)},
	{"gamma12", dist.NewGamma(12, 10)},
	{"transfer", dist.NewShiftedGammaMean(0.55*1.207, 2, 1.207)},
	{"sgamma-shape0.7", dist.NewShiftedGammaMean(2, 0.7, 3)},
	{"sgamma-far", dist.NewShiftedGammaMean(10, 3, 12)},
	{"pareto1.5", dist.NewPareto(1.5, 2)},
	{"pareto2.6", dist.NewPareto(2.6, 4.858)},
	{"lognormal", dist.NewLogNormal(0.6, 3)},
	{"hyperexp", dist.NewHyperExponential2(2, 4)},
	{"exponential", dist.NewExponential(300)},
	{"uniform", dist.NewUniform(1, 3)},
}

// scanCorpus is the differential corpus: every law at every size and
// censoring level (n = 4096 only without -race), drawn the way the
// pinned cases are. The tests seed a case by its index, so a -race run
// draws other samples.
func scanCorpus() []pinnedCase {
	sizes := []int{8, 50, 400, 4096}
	if raceBuild {
		sizes = sizes[:3]
	}
	var cases []pinnedCase
	for _, l := range scanLaws {
		for _, n := range sizes {
			for _, cens := range []float64{0, 0.15, 0.40} {
				cases = append(cases, pinnedCase{name: fmt.Sprintf("%s-%d-c%02.0f", l.name, n, 100*cens), law: l.law, n: n, cens: cens})
			}
		}
	}
	return cases
}

// sameShiftedGamma fails t unless the two outcomes are the same error
// or the same law, bit for bit.
func sameShiftedGamma(t *testing.T, name string, got, want dist.ShiftedGamma, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
	}
	for _, p := range [][2]float64{{got.Shift, want.Shift}, {got.G.K, want.G.K}, {got.G.Rate, want.G.Rate}} {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			t.Fatalf("%s: fit %v, reference %v", name, got, want)
		}
	}
}

// TestShiftedGammaMatchesReference: over the differential corpus the
// pruned scan returns the reference's fit or its error, bit for bit.
//
// On the same corpus it measures what scanMargin must cover. The scan
// returns the reference's fit as long as the candidate each pass ends up
// keeping is never dropped, that is, as long as it never trails the
// leader of a round at τ by more than max(1, scanMargin·τ·(1+|ℓ_best|)).
// Every candidate of both passes is run through the whole schedule
// unpruned, and the test requires the margin to be at least twice the
// largest such trail. It also logs the largest log-likelihood gain any
// candidate made after a round, in units of τ·(1+|ℓ_best|): that is not
// bounded by the margin (a search can stop early, collapsed on a ridge,
// and climb much further later), which is harmless for a candidate that
// does not win.
func TestShiftedGammaMatchesReference(t *testing.T) {
	var evals, refEvals int64
	headroom, trail, gain := math.Inf(1), 0.0, 0.0
	var tight, trailAt, gainAt string
	for i, c := range scanCorpus() {
		s := c.draw(i)
		var got, want dist.ShiftedGamma
		var gotErr, wantErr error
		evals += countEvals(func() { got, gotErr = ShiftedGamma(s) })
		refEvals += countEvals(func() { want, wantErr = shiftedGammaReference(s) })
		sameShiftedGamma(t, c.name, got, want, gotErr, wantErr)
		if wantErr != nil {
			continue
		}
		for pass, lls := range scanRounds(s) {
			final := lls[len(lls)-1]
			win := kept(final)
			for r, tol := range scanTols[:len(scanTols)-1] {
				best := slices.Max(lls[r])
				unit := tol * (1 + math.Abs(best))
				where := fmt.Sprintf("%s, pass %d, τ = %g", c.name, pass, tol)
				if d := best - lls[r][win]; d > 0 {
					if h := math.Max(1, scanMargin*unit) / d; h < headroom {
						headroom, tight = h, fmt.Sprintf("%s, trailing %.3g nats", where, d)
					}
					if d > 0.5 && d/unit > trail {
						trail, trailAt = d/unit, where
					}
				}
				for j, ll := range lls[r] {
					if g := final[j] - ll; g > 0.5 && g/unit > gain {
						gain, gainAt = g/unit, fmt.Sprintf("%s, candidate %d, %.3g nats", where, j, g)
					}
				}
			}
		}
	}
	t.Logf("objective evaluations: %d, reference %d (%.2f× fewer)", evals, refEvals, float64(refEvals)/float64(evals))
	t.Logf("largest trail of a kept candidate: %.1f·τ·(1+|ℓ_best|) (%s); margin/trail ≥ %.2f (%s)", trail, trailAt, headroom, tight)
	t.Logf("largest gain after a round: %.1f·τ·(1+|ℓ_best|) (%s)", gain, gainAt)
	if headroom < 2 {
		t.Fatalf("a kept candidate trailed its round's best by more than half the pruning margin (%s): scanMargin %d leaves %.2f× headroom", tight, scanMargin, headroom)
	}
}

// kept returns the candidate a scan keeps from these final
// log-likelihoods: the first strictly better than all before it and
// than −Inf, or −1.
func kept(final []float64) int {
	win, top := -1, math.Inf(-1)
	for j, ll := range final {
		if ll > top {
			win, top = j, ll
		}
	}
	return win
}

// scanRounds runs both passes of the scan of s through the whole schedule
// unpruned — the coarse shifts, then the coarse winner followed by the
// refined shifts around it — and returns, per pass and round, every
// candidate's log-likelihood after that round.
func scanRounds(s Sample) [][][]float64 {
	lo := stat.Min(s.Obs)
	run := func(shifts []float64) ([]*shiftCand, [][]float64) {
		sc := &shiftScan{s: s}
		var cands []*shiftCand
		for _, sh := range shifts {
			cands = sc.start(cands, sh)
		}
		lls := make([][]float64, len(scanTols))
		for r, tol := range scanTols {
			for _, c := range cands {
				if r > 0 {
					c.lik.cens, c.lik.lnc = sc.bounds(c.shift)
					c.nm.run(tol)
				}
				lls[r] = append(lls[r], -c.nm.vals[0])
			}
		}
		return cands, lls
	}
	var coarse []float64
	for j := 0; j <= 24; j++ {
		coarse = append(coarse, lo*(float64(j)/25))
	}
	cands, coarseLLs := run(coarse)
	win := kept(coarseLLs[len(scanTols)-1])
	refined := []float64{cands[win].shift}
	for j := -4; j <= 4; j++ {
		if sh := cands[win].shift + float64(j)*(lo/25)/5; j != 0 && sh >= 0 && sh < lo {
			refined = append(refined, sh)
		}
	}
	_, refinedLLs := run(refined)
	return [][][]float64{coarseLLs, refinedLLs}
}

// TestScanEvaluations: on the three channels of one observe_refit
// cycle the pruned scan spends at most 0.45 of the reference's
// objective evaluations.
func TestScanEvaluations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 498 000-event statistics set")
	}
	set := benchSet(t, 166_000)
	var evals, refEvals int64
	for i, ch := range []*Stats{set.Service[0], set.Service[1], set.Transfer} {
		s := ch.Sample(DefaultPseudoSample)
		var got, want dist.ShiftedGamma
		var gotErr, wantErr error
		evals += countEvals(func() { got, gotErr = ShiftedGamma(s) })
		refEvals += countEvals(func() { want, wantErr = shiftedGammaReference(s) })
		sameShiftedGamma(t, fmt.Sprintf("channel %d", i), got, want, gotErr, wantErr)
	}
	t.Logf("objective evaluations: %d, reference %d", evals, refEvals)
	if float64(evals) > 0.45*float64(refEvals) {
		t.Fatalf("%d objective evaluations, more than 0.45 × the reference's %d", evals, refEvals)
	}
}

// FuzzShiftedGammaScan holds the pruned scan to the reference on seeded
// draws from the corpus laws and, when law is past them, on a sample
// read from raw: eight bytes per value, the first cens of them bounds.
// Samples are capped at 1024 draws and 64 raw values: a fit of 512 equal
// values costs seconds (every candidate runs its 400 iterations), which
// the fuzzer reports as a hang.
func FuzzShiftedGammaScan(f *testing.F) {
	f.Add(uint8(3), uint16(200), uint8(40), uint64(1), []byte(nil))
	f.Add(uint8(4), uint16(60), uint8(15), uint64(2), []byte(nil))
	f.Add(uint8(6), uint16(30), uint8(0), uint64(3), []byte(nil))
	f.Add(uint8(11), uint16(9), uint8(40), uint64(4), []byte(nil))
	f.Add(uint8(255), uint16(0), uint8(1), uint64(0), []byte("\x00\x00\x00\x00\x00\x00\xf0\x3f\x00\x00\x00\x00\x00\x00\x00\x40"+
		"\x00\x00\x00\x00\x00\x00\x08\x40\x00\x00\x00\x00\x00\x00\x10\x40\x00\x00\x00\x00\x00\x00\x14\x40\x00\x00\x00\x00\x00\x00\x18\x40"))
	f.Fuzz(func(t *testing.T, law uint8, n uint16, cens uint8, seed uint64, raw []byte) {
		var s Sample
		if int(law) < len(scanLaws) {
			c := pinnedCase{law: scanLaws[law].law, n: 4 + int(n)%1021, cens: float64(cens%50) / 100}
			s = c.draw(int(seed % 1e6))
		} else {
			for i := 0; i+8 <= len(raw) && i < 8*64; i += 8 {
				x := math.Float64frombits(binary.LittleEndian.Uint64(raw[i:]))
				if i/8 < int(cens) {
					s.Cens = append(s.Cens, x)
				} else {
					s.Obs = append(s.Obs, x)
				}
			}
		}
		got, gotErr := ShiftedGamma(s)
		want, wantErr := shiftedGammaReference(s)
		sameShiftedGamma(t, "fuzz", got, want, gotErr, wantErr)
	})
}
