package adapt

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"dtr/dist"
	"dtr/dist/fit"
	"dtr/internal/rngutil"
	"dtr/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden.json from the code under test")

// goldenRounds emits n rounds covering every channel the assembler
// knows: per server a gamma service draw (every 9th right-censored at
// half its value) and a failure observation (censored at 40, exact
// every 6th), plus one three-task lognormal transfer and one
// exponential failure notice.
func goldenRounds(r *rand.Rand, n int, svcMean []float64) []trace.Event {
	var evs []trace.Event
	for i := 0; i < n; i++ {
		for s, m := range svcMean {
			v := dist.Gamma{K: 3, Rate: 3 / m}.Sample(r)
			svc := trace.Event{Kind: trace.KindService, Server: s, Value: v}
			if i%9 == 8 {
				svc.Value, svc.Censored = v/2, true
			}
			fail := trace.Event{Kind: trace.KindFailure, Server: s, Value: 40, Censored: true}
			if i%6 == 5 {
				fail.Value, fail.Censored = dist.NewExponential(200).Sample(r), false
			}
			evs = append(evs, svc, fail)
		}
		evs = append(evs,
			trace.Event{Kind: trace.KindTransfer, Src: 0, Dst: 1, Tasks: 3,
				Value: 3 * dist.LogNormal{Mu: 0, Sigma: 0.4}.Sample(r)},
			trace.Event{Kind: trace.KindFN, Src: 1, Dst: 0,
				Value: dist.NewExponential(0.5).Sample(r)})
	}
	return evs
}

// TestDecisionGolden pins the observe → fit → detect → replan loop byte
// for byte, for both observation sources. One seeded synthetic trace —
// a bootstrap phase, a statistically identical phase, then server 0
// slowing 3× — is driven through Observe…Refit, and, folded phase by
// phase with StatsSet.AddEvent, through ObserveStats/RefitStats. Every
// marshalled Decision (spec, report, policy, KS, RelMean) must equal
// testdata/decisions_{raw,stats}.golden.json.
//
// The golden files were generated from commit 84e4466 — the last one
// with separate raw and statistics pipelines — by running this test
// there with `go test ./internal/adapt -run TestDecisionGolden -update`;
// regenerate them only for an intended change of the estimators.
func TestDecisionGolden(t *testing.T) {
	r := rngutil.Stream(41, 0)
	steady := []float64{4, 2}
	phases := [][]trace.Event{
		goldenRounds(r, 300, steady),
		goldenRounds(r, 300, steady),
		goldenRounds(r, 500, []float64{12, 2}),
	}
	newController := func() *Controller {
		c, err := New(Config{
			Queues: []int{12, 6}, Objective: "reliability", // the trace has failures
			MinObs: 30, CheckEvery: 400, Window: 4800, GridN: 1 << 10,
			Families: []fit.Family{fit.FamilyExponential, fit.FamilyGamma, fit.FamilyPareto, fit.FamilyLogNormal},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ctx := context.Background()
	// expect checks the decision shape phase by phase: one bootstrap, a
	// quiet steady phase, at least one drift on the slowed server.
	expect := func(phase int, ds []*Decision) {
		t.Helper()
		switch {
		case phase == 0 && (len(ds) != 1 || ds[0].Reason != "bootstrap"):
			t.Fatalf("phase 0: %d decisions, want one bootstrap", len(ds))
		case phase == 1 && len(ds) != 0:
			t.Fatalf("steady phase tripped drift on %s", ds[0].Channel)
		case phase == 2 && (len(ds) == 0 || ds[0].Reason != "drift" || ds[0].Channel != "service[0]"):
			t.Fatalf("drift phase: %d decisions, want drift on service[0] first", len(ds))
		}
	}

	t.Run("raw", func(t *testing.T) {
		c := newController()
		var all []*Decision
		for i, evs := range phases {
			ds := feed(t, c, evs)
			expect(i, ds)
			all = append(all, ds...)
		}
		d, err := c.Refit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		compareGolden(t, "decisions_raw.golden.json", append(all, d))
	})

	t.Run("stats", func(t *testing.T) {
		c := newController()
		var all []*Decision
		var last *fit.StatsSet
		for i, evs := range phases {
			last = fit.NewStatsSet(2, 0)
			for _, ev := range evs {
				if err := last.AddEvent(ev); err != nil {
					t.Fatal(err)
				}
			}
			d, err := c.ObserveStats(ctx, last)
			if err != nil {
				t.Fatal(err)
			}
			var ds []*Decision
			if d != nil {
				ds = append(ds, d)
			}
			expect(i, ds)
			all = append(all, ds...)
		}
		d, err := c.RefitStats(ctx, last)
		if err != nil {
			t.Fatal(err)
		}
		compareGolden(t, "decisions_stats.golden.json", append(all, d))
	})
}

// compareGolden marshals the decisions and compares them with the named
// testdata file, byte for byte (or rewrites it under -update).
func compareGolden(t *testing.T, name string, ds []*Decision) {
	t.Helper()
	got, err := json.MarshalIndent(ds, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: decisions differ from the golden file (%d bytes, want %d)", name, len(got), len(want))
	}
}
