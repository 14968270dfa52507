package fit

import (
	"encoding/json"
	"math"
	"testing"

	"dtr/dist"
	"dtr/internal/rngutil"
	"dtr/internal/trace"
)

// statsFrom folds a raw censored sample into fresh sufficient
// statistics with the default sketch geometry.
func statsFrom(s Sample) *Stats {
	st := NewStats(0)
	for _, x := range s.Obs {
		st.Observe(x, false)
	}
	for _, c := range s.Cens {
		st.Observe(c, true)
	}
	return st
}

// TestStatsMergeProperty is the satellite lock: merge(A, B) must equal
// the statistics computed over A ∪ B — counts (exact and censored) and
// sketch buckets exactly, floating sums to addition-reordering
// precision — and merging must commute. This is the property the ingest
// tier's window rings and multi-emitter aggregation rest on.
func TestStatsMergeProperty(t *testing.T) {
	r := rngutil.Stream(901, 0)
	sample := synth(dist.NewPareto(2.614, 4.858), 5_000, 6, r)
	requireCensored(t, sample, 0.30)

	// Interleaved split so A and B see different mixes.
	var a, b, union Sample
	for i, x := range sample.Obs {
		if i%3 == 0 {
			a.Obs = append(a.Obs, x)
		} else {
			b.Obs = append(b.Obs, x)
		}
	}
	for i, c := range sample.Cens {
		if i%2 == 0 {
			a.Cens = append(a.Cens, c)
		} else {
			b.Cens = append(b.Cens, c)
		}
	}
	union.Obs = append(append(union.Obs, a.Obs...), b.Obs...)
	union.Cens = append(append(union.Cens, a.Cens...), b.Cens...)

	want := statsFrom(union)
	ab := statsFrom(a)
	if err := ab.Merge(statsFrom(b)); err != nil {
		t.Fatalf("Merge(A, B): %v", err)
	}
	ba := statsFrom(b)
	if err := ba.Merge(statsFrom(a)); err != nil {
		t.Fatalf("Merge(B, A): %v", err)
	}

	for name, got := range map[string]*Stats{"A+B": ab, "B+A": ba} {
		if got.N != want.N || got.CensN != want.CensN {
			t.Fatalf("%s: counts (n=%d cens=%d), want (n=%d cens=%d)",
				name, got.N, got.CensN, want.N, want.CensN)
		}
		if got.Min != want.Min || got.Max != want.Max {
			t.Errorf("%s: extremes [%g, %g], want [%g, %g]",
				name, got.Min, got.Max, want.Min, want.Max)
		}
		for field, pair := range map[string][2]float64{
			"sum":     {got.Sum, want.Sum},
			"sumLog":  {got.SumLog, want.SumLog},
			"sumSq":   {got.SumSq, want.SumSq},
			"censSum": {got.CensSum, want.CensSum},
		} {
			if relErr(pair[0], pair[1]) > 1e-12 {
				t.Errorf("%s: %s = %.15g, want %.15g", name, field, pair[0], pair[1])
			}
		}
		for i := range want.Hist.Counts {
			if got.Hist.Counts[i] != want.Hist.Counts[i] {
				t.Fatalf("%s: sketch bucket %d = %d, want %d", name, i, got.Hist.Counts[i], want.Hist.Counts[i])
			}
		}
		for i := range want.CensHist.Counts {
			if got.CensHist.Counts[i] != want.CensHist.Counts[i] {
				t.Fatalf("%s: censored sketch bucket %d = %d, want %d", name, i, got.CensHist.Counts[i], want.CensHist.Counts[i])
			}
		}
		if err := got.Validate(); err != nil {
			t.Errorf("%s: merged stats do not validate: %v", name, err)
		}
	}
}

// TestStatsMergeRejectsGeometryMismatch locks the merge precondition:
// sketches with different bucket counts have different edges and must
// refuse to combine rather than silently corrupt.
func TestStatsMergeRejectsGeometryMismatch(t *testing.T) {
	a, b := NewStats(512), NewStats(256)
	a.Observe(1, false)
	b.Observe(1, false)
	if err := a.Merge(b); err == nil {
		t.Fatal("merging 512-bucket into 256-bucket stats: want error, got nil")
	}
}

// TestStatsFootprintBounded locks the bounded-memory contract: the
// per-channel footprint is a pure function of the sketch geometry and
// stays exactly constant as the ingested event count grows 100×.
func TestStatsFootprintBounded(t *testing.T) {
	r := rngutil.Stream(902, 0)
	law := dist.NewExponential(2)
	st := NewStats(0)
	for i := 0; i < 1_000; i++ {
		st.Observe(law.Sample(r), i%4 == 0)
	}
	base := st.Footprint()
	for i := 0; i < 99_000; i++ {
		st.Observe(law.Sample(r), i%4 == 0)
	}
	if got := st.Footprint(); got != base {
		t.Fatalf("footprint grew from %d to %d bytes over 100x more events", base, got)
	}
	if st.Total() != 100_000 {
		t.Fatalf("total = %d, want 100000", st.Total())
	}
}

// TestStatsExponentialExact locks the strongest sketch-fit guarantee:
// the censored exponential MLE is events-over-exposure, and count, sum
// and censored-bound sum are carried exactly — so the stats fit equals
// the raw-trace fit to floating-point identity, censoring and all.
func TestStatsExponentialExact(t *testing.T) {
	r := rngutil.Stream(101, 0)
	s := synth(dist.NewExponential(300), 10_000, 450, r)
	requireCensored(t, s, 0.30)
	raw, err := Fit(FamilyExponential, s)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := FitStats(FamilyExponential, statsFrom(s))
	if err != nil {
		t.Fatal(err)
	}
	if sk.Dist.Mean() != raw.Dist.Mean() {
		t.Errorf("stats mean %.15g != raw mean %.15g (closed form must be exact)",
			sk.Dist.Mean(), raw.Dist.Mean())
	}
}

// TestStatsGammaUncensoredExact: with no censoring the gamma MLE needs
// only (n, Σx, Σ log x), all carried exactly, so the stats fit matches
// the raw fit to Newton-iteration precision.
func TestStatsGammaUncensoredExact(t *testing.T) {
	r := rngutil.Stream(104, 1)
	law := dist.NewGamma(2, 4)
	var s Sample
	for i := 0; i < 10_000; i++ {
		s.Obs = append(s.Obs, law.Sample(r))
	}
	raw, err := Fit(FamilyGamma, s)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := FitStats(FamilyGamma, statsFrom(s))
	if err != nil {
		t.Fatal(err)
	}
	rg, sg := raw.Dist.(dist.Gamma), sk.Dist.(dist.Gamma)
	if relErr(sg.K, rg.K) > 1e-9 || relErr(sg.Rate, rg.Rate) > 1e-9 {
		t.Errorf("stats gamma (k=%.12g rate=%.12g) != raw (k=%.12g rate=%.12g)",
			sg.K, sg.Rate, rg.K, rg.Rate)
	}
}

// TestStatsFitGolden locks the tentpole accuracy criterion on the
// paper's §III-B golden models at >= 30% censoring: parameters fitted
// from the bounded sketch must track the raw-trace fits within a few
// percent, and the sketch-backed KS must agree with the exact empirical
// KS to sketch resolution.
func TestStatsFitGolden(t *testing.T) {
	cases := []struct {
		name     string
		family   Family
		law      dist.Dist
		censMean float64
		seed     uint64
		tol      float64 // max rel deviation, stats fit vs raw fit
		params   func(d dist.Dist) map[string]float64
	}{
		{
			// Server-0 service law: Pareto alpha 2.614, mean 4.858.
			name: "pareto-service", family: FamilyPareto,
			law: dist.NewPareto(2.614, 4.858), censMean: 6, seed: 102, tol: 0.03,
			params: func(d dist.Dist) map[string]float64 {
				p := d.(dist.Pareto)
				return map[string]float64{"alpha": p.Alpha, "mean": p.Mean()}
			},
		},
		{
			// Transfer law: shifted gamma, per-task mean 1.207, shape 2,
			// shiftFrac 0.55. Shape rides a likelihood ridge (the raw
			// golden test allows 15% vs truth), so compare the
			// well-identified mean and shift.
			name: "shifted-gamma-transfer", family: FamilyShiftedGam,
			law:      dist.NewShiftedGammaMean(0.55*1.207, 2, 1.207),
			censMean: 1.8, seed: 103, tol: 0.05,
			params: func(d dist.Dist) map[string]float64 {
				g := d.(dist.ShiftedGamma)
				return map[string]float64{"mean": g.Mean(), "shift": g.Shift}
			},
		},
		{
			// Server-1 failure law: exponential mean 300.
			name: "exponential-failure", family: FamilyExponential,
			law: dist.NewExponential(300), censMean: 450, seed: 101, tol: 1e-12,
			params: func(d dist.Dist) map[string]float64 {
				return map[string]float64{"mean": d.Mean()}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rngutil.Stream(tc.seed, 0)
			s := synth(tc.law, 10_000, tc.censMean, r)
			requireCensored(t, s, 0.30)
			raw, err := Fit(tc.family, s)
			if err != nil {
				t.Fatal(err)
			}
			sk, err := FitStats(tc.family, statsFrom(s))
			if err != nil {
				t.Fatal(err)
			}
			rp, sp := tc.params(raw.Dist), tc.params(sk.Dist)
			for name, want := range rp {
				if e := relErr(sp[name], want); e > tc.tol {
					t.Errorf("%s: stats fit %s = %.6g, raw fit %.6g (rel err %.4f > %.4f)",
						tc.name, name, sp[name], want, e, tc.tol)
				}
			}
			// The sketch KS is exact at bucket edges; it may only differ
			// from the pointwise empirical KS by one bucket's worth of mass.
			if d := math.Abs(sk.KS - raw.KS); d > 0.01 {
				t.Errorf("%s: sketch KS %.4f vs raw KS %.4f (|Δ| %.4f)", tc.name, sk.KS, raw.KS, d)
			}
		})
	}
}

// TestSelectStatsAgreesWithRaw: model selection from the sketch must
// track selection from the raw trace on the golden channels. Family
// identity is asserted where the winner is clear-cut (the heavy-tailed
// Pareto service law); where AIC has a near-tie (exponential data also
// fits gamma k≈1) the KS tie-break may flip the label, so the invariant
// is the selected law itself: its mean must match the raw winner's.
func TestSelectStatsAgreesWithRaw(t *testing.T) {
	cases := []struct {
		name        string
		law         dist.Dist
		censMean    float64
		seed        uint64
		checkFamily bool
	}{
		{"pareto", dist.NewPareto(2.614, 4.858), 6, 102, true},
		{"exponential", dist.NewExponential(300), 450, 101, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rngutil.Stream(tc.seed, 0)
			s := synth(tc.law, 10_000, tc.censMean, r)
			raw, err := Select(s, nil)
			if err != nil {
				t.Fatal(err)
			}
			sk, err := SelectStats(statsFrom(s), nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.checkFamily && sk.Family != raw.Family {
				t.Errorf("sketch selection picked %s, raw picked %s", sk.Family, raw.Family)
			}
			if e := relErr(sk.Dist.Mean(), raw.Dist.Mean()); e > 0.02 {
				t.Errorf("selected mean: sketch %.4f vs raw %.4f (rel err %.4f)",
					sk.Dist.Mean(), raw.Dist.Mean(), e)
			}
		})
	}
}

// TestStatsSetSpecMatchesSamplesSpec drives the full streaming path: a
// synthetic two-server trace folded event-by-event into a StatsSet must
// yield a spec whose per-channel means track the raw Collect+Spec means
// within sketch tolerance.
func TestStatsSetSpecMatchesSamplesSpec(t *testing.T) {
	r := rngutil.Stream(903, 0)
	svc := []dist.Dist{dist.NewExponential(1), dist.NewExponential(3)}
	var evs []trace.Event
	evs = append(evs, trace.Event{Kind: trace.KindMeta, Servers: 2})
	for i := 0; i < 2_000; i++ {
		srv := i % 2
		evs = append(evs, trace.Event{Kind: trace.KindService, Server: srv, Value: svc[srv].Sample(r)})
		if i%3 == 0 {
			tasks := 1 + i%5
			evs = append(evs, trace.Event{
				Kind: trace.KindTransfer, Src: srv, Dst: 1 - srv, Tasks: tasks,
				Value: dist.NewExponential(0.25 * float64(tasks)).Sample(r),
			})
		}
		if i%100 == 0 {
			evs = append(evs, trace.Event{Kind: trace.KindFailure, Server: srv, Value: dist.NewExponential(200).Sample(r), Censored: i%200 == 0})
		}
	}

	for i := range evs {
		evs[i].V = trace.Version
	}
	set := NewStatsSet(0, 0)
	for _, ev := range evs {
		if err := set.AddEvent(ev); err != nil {
			t.Fatalf("AddEvent(%+v): %v", ev, err)
		}
	}
	cfg := Config{Queues: []int{40, 10}, Families: []Family{FamilyExponential, FamilyGamma}}
	rawSpec, _, err := Spec(evs, cfg)
	if err != nil {
		t.Fatalf("raw Spec: %v", err)
	}
	skSpec, skReport, err := set.Spec(cfg)
	if err != nil {
		t.Fatalf("stats Spec: %v", err)
	}
	if len(skSpec.Servers) != 2 {
		t.Fatalf("stats spec has %d servers, want 2", len(skSpec.Servers))
	}
	for i := range rawSpec.Servers {
		if e := relErr(skSpec.Servers[i].Service.Mean, rawSpec.Servers[i].Service.Mean); e > 0.02 {
			t.Errorf("service[%d] mean: stats %.4f vs raw %.4f (rel err %.4f)",
				i, skSpec.Servers[i].Service.Mean, rawSpec.Servers[i].Service.Mean, e)
		}
		rf, sf := rawSpec.Servers[i].Failure, skSpec.Servers[i].Failure
		if (rf == nil) != (sf == nil) {
			t.Fatalf("failure[%d]: raw nil=%v, stats nil=%v", i, rf == nil, sf == nil)
		}
		if rf != nil && relErr(sf.Mean, rf.Mean) > 1e-9 {
			t.Errorf("failure[%d] mean: stats %.6g vs raw %.6g (exponential path must be exact)",
				i, sf.Mean, rf.Mean)
		}
	}
	if e := relErr(skSpec.Transfer.PerTaskMean, rawSpec.Transfer.PerTaskMean); e > 0.02 {
		t.Errorf("transfer per-task mean: stats %.4f vs raw %.4f (rel err %.4f)",
			skSpec.Transfer.PerTaskMean, rawSpec.Transfer.PerTaskMean, e)
	}
	if len(skReport.Fits) == 0 {
		t.Error("stats report carries no channel fits")
	}
}

// TestStatsJSONRoundTrip: a StatsSet survives the snapshot wire format
// — JSON marshal/unmarshal — with its fits intact.
func TestStatsJSONRoundTrip(t *testing.T) {
	r := rngutil.Stream(904, 0)
	set := NewStatsSet(1, 64)
	law := dist.NewExponential(2)
	for i := 0; i < 500; i++ {
		if err := set.AddEvent(trace.Event{Kind: trace.KindService, Server: 0, Value: law.Sample(r), Censored: i%5 == 0}); err != nil {
			t.Fatal(err)
		}
	}
	b, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	var back StatsSet
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped set does not validate: %v", err)
	}
	want, err := FitStats(FamilyExponential, set.Service[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := FitStats(FamilyExponential, back.Service[0])
	if err != nil {
		t.Fatal(err)
	}
	if got.Dist.Mean() != want.Dist.Mean() {
		t.Errorf("fit after round-trip: mean %.12g, want %.12g", got.Dist.Mean(), want.Dist.Mean())
	}
}

// TestStatsObserveZero: a zero-valued exact observation (legal on every
// wire format) is clamped to ZeroFloor rather than folding
// log(0) = -Inf into SumLog — one zero must not make the whole window
// fail Validate until it rotates out.
func TestStatsObserveZero(t *testing.T) {
	s := NewStats(64)
	s.Observe(0, false)
	for i := 0; i < 99; i++ {
		s.Observe(1+float64(i%5), false)
	}
	s.Observe(0, true) // a zero censored bound carries no information but is fine
	if err := s.Validate(); err != nil {
		t.Fatalf("stats with a zero observation do not validate: %v", err)
	}
	if math.IsInf(s.SumLog, 0) || math.IsNaN(s.SumLog) {
		t.Fatalf("SumLog = %g, want finite", s.SumLog)
	}
	if s.Min != ZeroFloor {
		t.Errorf("Min = %g, want the %g floor", s.Min, ZeroFloor)
	}
	r, err := FitStats(FamilyExponential, s)
	if err != nil {
		t.Fatalf("exponential fit after a zero observation: %v", err)
	}
	if m := r.Dist.Mean(); m <= 0 || math.IsInf(m, 0) {
		t.Errorf("degenerate fitted mean %g", m)
	}
}

// TestStatsSetNilChannelEntries: a decoded StatsSet carrying null
// channel entries (e.g. {"service":[null]} from a crafted /v1/fit body)
// must be rejected by Validate, and Spec must error rather than panic
// even if validation is skipped.
func TestStatsSetNilChannelEntries(t *testing.T) {
	var set StatsSet
	if err := json.Unmarshal([]byte(`{"servers":1,"service":[null],"failure":[null]}`), &set); err != nil {
		t.Fatal(err)
	}
	if err := set.Validate(); err == nil {
		t.Error("Validate accepted a set with nil channel entries")
	}
	_, _, err := set.Spec(Config{Queues: []int{10}})
	if err == nil {
		t.Error("Spec accepted a set with nil channel entries")
	}
}

// TestSpecRejectsShortLayout: a set that claims more servers than it
// carries channels — a decoded {"servers":3,"service":[{…}]}; Spec's
// direct callers run no Validate first — must make Spec error rather
// than index past the slices, from either source.
func TestSpecRejectsShortLayout(t *testing.T) {
	set := NewStatsSet(1, 0)
	var obs []float64
	for i := 0; i < 50; i++ {
		x := 1 + float64(i%7)
		obs = append(obs, x)
		set.Service[0].Observe(x, false)
		set.Transfer.Observe(x, false)
	}
	set.Servers = 3
	if err := set.Validate(); err == nil {
		t.Error("Validate accepted 3 servers over 1 service channel")
	}
	cfg := Config{Queues: []int{5, 5, 5}, Families: []Family{FamilyExponential}}
	if _, _, err := set.Spec(cfg); err == nil {
		t.Error("StatsSet.Spec accepted 3 servers over 1 service channel")
	}
	sm := &Samples{Servers: 3, Service: []Sample{{Obs: obs}}, Failure: []Sample{{}}, Transfer: Sample{Obs: obs}}
	if _, _, err := sm.Spec(cfg); err == nil {
		t.Error("Samples.Spec accepted 3 servers over 1 service channel")
	}
}

// FuzzStatsSetSpec feeds arbitrary /v1/fit statistics bodies down the
// path the endpoint runs: decode, Validate, Spec with two queues. Nothing
// may panic, and a set Validate accepts gets an error or a spec document
// modelspec validates. The committed corpus holds the shapes the tests
// above know to be hostile; the two seeds added here are a set that fits
// and the same set with one count off.
func FuzzStatsSetSpec(f *testing.F) {
	set := NewStatsSet(2, 32)
	r := rngutil.Stream(0xf022, 0)
	for i := 0; i < 60; i++ {
		set.Service[0].Observe(dist.NewPareto(2.614, 4.858).Sample(r), false)
		set.Service[1].Observe(dist.NewGamma(2, 3).Sample(r), i%5 == 0)
		set.Failure[i%2].Observe(dist.NewExponential(300).Sample(r), i%4 != 0)
		set.Transfer.Observe(dist.NewShiftedGammaMean(0.6, 2, 1.2).Sample(r), false)
	}
	good, err := json.Marshal(set)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	set.Transfer.N++
	off, _ := json.Marshal(set)
	f.Add(off)
	f.Fuzz(func(t *testing.T, body []byte) {
		var set StatsSet
		if json.Unmarshal(body, &set) != nil {
			return
		}
		valid := set.Validate() == nil
		spec, report, err := set.Spec(Config{Queues: []int{10, 5}})
		if !valid || err != nil {
			return
		}
		if spec == nil || report == nil {
			t.Fatalf("Spec returned %v, %v and no error", spec, report)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("Spec returned a document modelspec rejects: %v", err)
		}
	})
}
