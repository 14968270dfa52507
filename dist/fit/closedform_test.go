package fit

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"testing"

	"dtr/dist"
	"dtr/internal/rngutil"
	"dtr/internal/specfn"
	"dtr/internal/stat"
	"dtr/internal/trace"
)

// residuals displaces a sample by shift the way ShiftedGamma's scan does:
// ok is false when an exact observation sits at or below the shift, and
// bounds at or below it are left out (their survival is 1).
func residuals(s Sample, shift float64) (res Sample, ok bool) {
	for _, x := range s.Obs {
		if x-shift <= 0 {
			return res, false
		}
		res.Obs = append(res.Obs, x-shift)
	}
	for _, c := range s.Cens {
		if c-shift > 0 {
			res.Cens = append(res.Cens, c-shift)
		}
	}
	return res, true
}

// TestGammaClosedFormMatchesLogLik: the objective censoredGamma minimizes
// — the exact part from (n, Σ x, Σ ln x), the bounds summed by
// specfn.GammaLogQSum — is
// −LogLik of the shifted law on the undisplaced sample, to 1e-10
// relative, over random (shape, rate, shift, sample); and +Inf exactly
// when LogLik is −Inf for a bound with zero survival. A shift at or past
// an observation — LogLik's other −Inf — never reaches the objective:
// the scan refuses the candidate, which residuals mirrors.
func TestGammaClosedFormMatchesLogLik(t *testing.T) {
	r := rngutil.Stream(0xc105ed, 0)
	logUniform := func(lo, hi float64) float64 { return lo * math.Exp(r.Float64()*math.Log(hi/lo)) }
	objective := func(g dist.Gamma, res Sample) float64 {
		var sumLog float64
		for _, x := range res.Obs {
			sumLog += math.Log(x)
		}
		lnc := make([]float64, len(res.Cens))
		for i, c := range res.Cens {
			lnc[i] = math.Log(c)
		}
		return -(gammaExactLogLik(g, float64(len(res.Obs)), sum(res.Obs), sumLog) + specfn.GammaLogQSum(g.K, g.Rate, res.Cens, lnc))
	}
	finite, infinite, refused := 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		truth := dist.NewShiftedGamma(2*r.Float64(), logUniform(0.3, 8), logUniform(0.2, 5))
		var s Sample
		for i, n := 0, 2+r.IntN(600); i < n; i++ {
			if x, c := truth.Sample(r), truth.Sample(r)*1.5; c < x {
				s.Cens = append(s.Cens, c)
			} else {
				s.Obs = append(s.Obs, x)
			}
		}
		if len(s.Obs) == 0 {
			continue
		}
		// Candidates around the truth, and now and then a rate at which a
		// bound's survival underflows or a shift past the smallest observation.
		g := dist.Gamma{K: truth.G.K * logUniform(0.5, 2), Rate: truth.G.Rate * logUniform(0.5, 2)}
		shift := stat.Min(s.Obs) * r.Float64()
		switch trial % 8 {
		case 0:
			g.Rate *= 1e4
		case 1:
			shift = stat.Min(s.Obs) * (1 + r.Float64())
		}
		want := -LogLik(dist.ShiftedGamma{Shift: shift, G: g}, s)
		res, ok := residuals(s, shift)
		if !ok {
			refused++
			if !math.IsInf(want, 1) {
				t.Fatalf("trial %d: shift %g past an observation, yet LogLik is %g", trial, shift, -want)
			}
			continue
		}
		got := objective(g, res)
		if math.IsInf(want, 1) && len(s.Cens) > 0 && math.IsInf(LogLik(g, Sample{Cens: res.Cens}), -1) {
			infinite++
			if !math.IsInf(got, 1) {
				t.Errorf("trial %d: a bound has zero survival, objective %g", trial, got)
			}
			continue
		}
		if math.IsInf(want, 1) {
			continue // a density underflowed at a point: see gammaExactLogLik
		}
		finite++
		if d := math.Abs(got - want); d > 1e-10*math.Abs(want) {
			t.Errorf("trial %d (n=%d, %d censored, k=%g rate=%g shift=%g): objective %.17g, −LogLik %.17g",
				trial, s.N(), len(s.Cens), g.K, g.Rate, shift, got, want)
		}
	}
	if finite < 250 || infinite < 10 || refused < 30 {
		t.Fatalf("cases exercised: %d finite, %d zero-survival, %d refused shifts", finite, infinite, refused)
	}
}

// TestShiftScanSkipsCentreHarmlessly: the refine pass no longer re-fits
// its centre, the coarse winner. With a strict > that candidate could
// never displace itself, so the scan with the centre put back must pick
// the same (shift, shape, rate), bit for bit.
func TestShiftScanSkipsCentreHarmlessly(t *testing.T) {
	withCentre := func(s Sample) (best dist.ShiftedGamma) {
		lo, bestLL := stat.Min(s.Obs), math.Inf(-1)
		try := func(shift float64) {
			if res, ok := residuals(s, shift); ok {
				if g, ll, err := censoredGamma(res); err == nil && ll > bestLL {
					bestLL, best = ll, dist.ShiftedGamma{Shift: shift, G: g}
				}
			}
		}
		for i := 0; i <= 24; i++ {
			try(lo * (float64(i) / 25))
		}
		centre := best.Shift
		for i := -4; i <= 4; i++ {
			if sh := centre + float64(i)*(lo/25)/5; sh >= 0 && sh < lo {
				try(sh)
			}
		}
		return best
	}
	for i, c := range pinnedCases() {
		if c.n > 5000 {
			continue
		}
		s := c.draw(i)
		got, err := ShiftedGamma(s)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if want := withCentre(s); got != want {
			t.Errorf("%s: scan without the centre picks %v, with it %v", c.name, got, want)
		}
	}
}

// referenceQuantile is LogHist's former per-probe quantile — a Total()
// and a walk from the first bucket for every probe — kept as the oracle
// for quantiles.
func referenceQuantile(h *LogHist, q float64, lo, hi float64) float64 {
	total := h.Total()
	if total == 0 {
		return lo
	}
	rank := q * float64(total)
	cum := float64(h.Under)
	if rank <= cum {
		// Underflow mass: interpolate linearly on [lo, HistLo).
		u := math.Min(HistLo, hi)
		if cum == 0 || u <= lo {
			return lo
		}
		return lo + (u-lo)*rank/cum
	}
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next {
			a, b := h.edge(i), h.edge(i+1)
			f := (rank - cum) / float64(c)
			v := a * math.Pow(b/a, f)
			return clamp(v, lo, hi)
		}
		cum = next
	}
	return hi
}

// TestQuantilesWalkMatchesPerProbe: one monotone walk over the buckets
// must reconstruct what probing them one level at a time did, element
// for element and bit for bit — on sparse and dense sketches, with mass
// under and over the bucketed range, with more probes than observations
// and fewer, against the bounds Sample passes for either part.
func TestQuantilesWalkMatchesPerProbe(t *testing.T) {
	r := rngutil.Stream(0x9a17, 0)
	for trial := 0; trial < 60; trial++ {
		h := NewLogHist([]int{0, 128, 16}[trial%3])
		if trial%10 == 9 {
			h.Counts = nil // decoded "all zero"
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		spread := 0.5 + 6*r.Float64() // decades
		for i, n := 0, r.IntN(3000); i < n; i++ {
			x := math.Pow(10, spread*r.NormFloat64())
			switch r.IntN(40) {
			case 0:
				x = HistLo * r.Float64() // under
			case 1:
				x = HistHi * (1 + r.Float64()) // over
			}
			if h.Counts == nil && x >= HistLo && x < HistHi {
				continue
			}
			h.Observe(x)
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		total := int(h.Total())
		for _, n := range []int{1, 2, total / 3, total, total + 1, 4096} {
			if n <= 0 {
				continue
			}
			for _, b := range [][2]float64{{lo, hi}, {0, math.MaxFloat64}} {
				got := make([]float64, n)
				h.quantiles(got, b[0], b[1])
				for i := range got {
					want := referenceQuantile(h, (float64(i)+0.5)/float64(n), b[0], b[1])
					if math.Float64bits(got[i]) != math.Float64bits(want) {
						t.Fatalf("trial %d (%d buckets, %d obs, under %d, over %d), %d probes on [%g, %g]: probe %d = %.17g, per-probe %.17g",
							trial, h.Buckets, total, h.Under, h.Over, n, b[0], b[1], i, got[i], want)
					}
				}
			}
		}
	}
}

// TestStatsObserveKeepsDecodedGeometry: a decoded channel that carries
// only its censored sketch, at a non-default resolution, must create the
// exact sketch at that resolution on its first exact observation — with
// the default 512 buckets it could never again merge with the windows
// beside it.
func TestStatsObserveKeepsDecodedGeometry(t *testing.T) {
	src := NewStats(128)
	src.Observe(2.5, true)
	src.Hist = nil
	wire, err := json.Marshal(src)
	if err != nil {
		t.Fatal(err)
	}
	var s Stats
	if err := json.Unmarshal(wire, &s); err != nil {
		t.Fatal(err)
	}
	if s.Hist != nil || s.CensHist == nil || s.CensHist.Buckets != 128 {
		t.Fatalf("decoded %s into hist %v, censHist %v", wire, s.Hist, s.CensHist)
	}
	s.Observe(1.25, false)
	window := NewStats(128)
	window.Observe(3, false)
	if err := window.Merge(&s); err != nil {
		t.Fatalf("merge into a 128-bucket window: %v", err)
	}
	if err := window.Validate(); err != nil || window.N != 2 || window.CensN != 1 {
		t.Fatalf("merged window: n=%d censN=%d, %v", window.N, window.CensN, err)
	}
}

// benchSet is a statistics set shaped like the one observe_refit's
// snapshot carries: Pareto service at two servers and shifted-gamma group
// transfers, perChannel observations each, every one racing an
// independent censoring time (about 14 % of service and 10 % of transfer
// observations lose and arrive as lower bounds).
func benchSet(tb testing.TB, perChannel int) *StatsSet {
	r := rand.New(rand.NewPCG(7, 7))
	laws := []dist.Dist{
		dist.NewPareto(2.6, 4.858), dist.NewPareto(2.6, 2.357),
		dist.NewShiftedGammaMean(0.55*1.207, 2, 1.207),
	}
	set := NewStatsSet(2, 0)
	for i := 0; i < 3*perChannel; i++ {
		ch := i % 3
		x, c := laws[ch].Sample(r), 1.65*laws[ch].Sample(r)
		ev := trace.Event{Kind: trace.KindService, Server: ch, Value: math.Min(x, c), Censored: c < x}
		if ch == 2 {
			tasks := 1 + r.IntN(20)
			ev = trace.Event{Kind: trace.KindTransfer, Src: 0, Dst: 1, Tasks: tasks, Value: ev.Value * float64(tasks), Censored: ev.Censored}
		}
		if err := set.AddEvent(ev); err != nil {
			tb.Fatal(err)
		}
	}
	return set
}

// BenchmarkStatsSpec is the refit of one observe_refit cycle: every
// family on three channels of 166 k observations each. evals/op counts
// the objective evaluations of every simplex search.
func BenchmarkStatsSpec(b *testing.B) {
	set := benchSet(b, 166_000)
	b.ReportAllocs()
	b.ResetTimer()
	evals := countEvals(func() {
		for i := 0; i < b.N; i++ {
			spec, _, err := set.Spec(Config{Queues: []int{50, 25}})
			if err != nil || spec.Transfer.Type != "shifted-gamma" {
				b.Fatalf("spec %+v, %v", spec, err)
			}
		}
	})
	b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
}

// BenchmarkShiftedGammaCensored is the fitter a cycle spends its time
// in, on the transfer channel's pseudo-sample (4096 points, 10 % bounds).
func BenchmarkShiftedGammaCensored(b *testing.B) {
	sample := benchSet(b, 20_000).Transfer.Sample(0)
	b.ReportAllocs()
	b.ResetTimer()
	evals := countEvals(func() {
		for i := 0; i < b.N; i++ {
			if _, err := ShiftedGamma(sample); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
}
