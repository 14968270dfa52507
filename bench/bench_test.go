package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// The tests run every workload at smallProfile so they fit in tier-1;
// the command line always measures at fullProfile.

func sortedKeys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func specNames(ms []metricSpec) []string {
	out := make([]string, 0, len(ms))
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

// checkUnits requires every emitted metric to carry its declared unit.
func checkUnits(t *testing.T, got map[string]metric, want []metricSpec) {
	t.Helper()
	for _, m := range want {
		if got[m.Name].Unit != m.Unit {
			t.Errorf("%s: emitted unit %q, BENCHMARK.json declares %q", m.Name, got[m.Name].Unit, m.Unit)
		}
	}
}

// TestWorkloadsCompleteAndMatchDeclaration runs every workload end to
// end: no operation may fail, and the emitted workload and metric names
// must equal BENCHMARK.json's in both directions.
func TestWorkloadsCompleteAndMatchDeclaration(t *testing.T) {
	spec, err := loadBenchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	var declared, implemented []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		implemented = append(implemented, w.name)
	}
	if fmt.Sprint(declared) != fmt.Sprint(implemented) {
		t.Fatalf("workloads: BENCHMARK.json declares %v, the program implements %v", declared, implemented)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, n := range append(append(declared, specNames(spec.EndToEnd)...), specNames(spec.PerLayer)...) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %s", n, name)
		}
	}

	for _, w := range workloads {
		doc, err := runWorkload(w, 1, 150*time.Millisecond, false, smallProfile, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if doc.FailShare != 0 || !doc.Result.Correct {
			t.Errorf("%s: fail_share %g: %s", w.name, doc.FailShare, doc.Failure)
		}
		if got, want := sortedKeys(doc.Result.Metrics), specNames(spec.EndToEnd); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: end-to-end metrics %v, BENCHMARK.json declares %v", w.name, got, want)
		}
		checkUnits(t, doc.Result.Metrics, spec.EndToEnd)
		for n, m := range doc.Result.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s is %g; it must never be 0", w.name, n, m.Value)
			}
		}
		pv := doc.Provenance
		if pv.InputSHA256 == "" || pv.GoVersion == "" || pv.NProc == 0 || pv.Seed != 1 || len(pv.Counts) == 0 {
			t.Errorf("%s: incomplete provenance %+v", w.name, pv)
		}
	}
}

// TestTracedRunMatchesDeclaration checks the per-layer names the same
// way, on the two workloads that between them reach every span site,
// and that the replay reconciles with the real call.
func TestTracedRunMatchesDeclaration(t *testing.T) {
	spec, err := loadBenchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"plan_fanout", "observe_refit"} {
		w, _ := findWorkload(name)
		dir := t.TempDir()
		doc, err := runWorkload(w, 1, 0, true, smallProfile, dir)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if doc.FailShare != 0 {
			t.Errorf("%s: fail_share %g: %s", name, doc.FailShare, doc.Failure)
		}
		if got, want := sortedKeys(doc.Result.Metrics), specNames(spec.PerLayer); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: per-layer metrics\n got %v\nwant %v", name, got, want)
		}
		checkUnits(t, doc.Result.Metrics, spec.PerLayer)
		if doc.SpanFile != filepath.Join(dir, "trace-"+name+".jsonl") || len(doc.Ledger) == 0 {
			t.Errorf("%s: span file %q, ledger %v", name, doc.SpanFile, doc.Ledger)
		}
		if name == "plan_fanout" {
			for _, leaf := range []string{"serve.http", "replay", "direct.NewSolver", "policy.Optimize2", "policy.OptimizeRepl2",
				"direct.metrics", "direct.CompletionCDF", "dtr.Explain", "dtr.MetricBounds", "json.Marshal"} {
				if doc.Ledger[leaf].Count == 0 {
					t.Errorf("plan_fanout: no %q span in the ledger", leaf)
				}
			}
			if doc.Reconcile == nil || doc.Result.Metrics["serve.computes_per_unit"].Value != fanoutSteps {
				t.Errorf("plan_fanout: reconcile %v, computes per session %v", doc.Reconcile, doc.Result.Metrics["serve.computes_per_unit"])
			}
		}
	}
}

// TestInputHashFollowsSeed: the same seed generates the same inputs, a
// different seed different ones.
func TestInputHashFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		var sha [3]string
		for i, seed := range []uint64{1, 1, 2} {
			inst, err := w.setup(seed, smallProfile)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			sha[i] = inst.inputSHA
			inst.close()
		}
		if sha[0] != sha[1] {
			t.Errorf("%s: seed 1 hashed to %s and then %s", w.name, sha[0], sha[1])
		}
		if sha[0] == sha[2] {
			t.Errorf("%s: seeds 1 and 2 generated identical inputs", w.name)
		}
	}
}

// TestWrongReplyCountsAsFailure feeds the loop an anchored optimize
// reply that is right, one whose policy is off by one and one whose
// value is off by 1e-4: two of the three must land in fail_share.
func TestWrongReplyCountsAsFailure(t *testing.T) {
	anchors, err := loadAnchors()
	if err != nil {
		t.Fatal(err)
	}
	const id = "optimize/severe/2048/mean"
	ref, ok := anchors.byID[id]
	if !ok {
		t.Fatalf("no anchor %s", id)
	}
	reply := func(l12 int, value float64) []byte {
		b, err := json.Marshal(optimizeReply{Objective: "mean", Matrix: [][]int{{0, l12}, {0, 0}}, Value: &value})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	bodies := [][]byte{
		reply(ref.Policy[0][1], ref.Value*(1+1e-9)), // inside the tolerance
		reply(ref.Policy[0][1]+1, ref.Value),
		reply(ref.Policy[0][1], ref.Value*(1+1e-4)),
	}
	inst := &instance{units: len(bodies), run: func(i int, rec *recorder) {
		_, err := checkOptimize(bodies[i], id, 100, 50, anchors)
		rec.op(time.Millisecond, err)
	}}
	var doc runDoc
	doc.fill(runLoop(inst, 1, time.Minute, 0, 0, nil, nil))
	if doc.Result.Attempted != 3 || doc.Result.Failed != 2 || doc.Result.Correct || doc.FailShare != 2.0/3 {
		t.Fatalf("attempted %d failed %d fail_share %g (%s), want 2 of 3 failed", doc.Result.Attempted, doc.Result.Failed, doc.FailShare, doc.Failure)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles %g, %g; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("quartiles %g, %g; Python gives 0.75, 2.25", q1, q3)
	}
}

func TestTailIndex(t *testing.T) {
	for _, c := range []struct{ n, idx int }{{5, 4}, {20, 19}, {21, 10}, {120, 109}, {300000, 296999}} {
		if idx, pct := tailIndex(c.n); idx != c.idx || pct <= 0 || pct > 100 {
			t.Errorf("tailIndex(%d) = %d (%.3f%%), want %d", c.n, idx, pct, c.idx)
		}
	}
}

// TestWindowedPassReportsQuietWindows: a pass whose middle window ran on
// a slowed host reports the two undisturbed windows, and the operations
// after the last complete window are left out.
func TestWindowedPassReportsQuietWindows(t *testing.T) {
	const us, cpu0 = time.Microsecond, 7 * time.Second
	rec := &recorder{window: 4}
	fill := func(every time.Duration, cpu time.Duration, lats ...time.Duration) {
		at := time.Duration(0)
		if n := len(rec.done); n > 0 {
			at = rec.done[n-1]
		}
		for i, lat := range lats {
			rec.lat = append(rec.lat, lat)
			rec.done = append(rec.done, at+time.Duration(i+1)*every)
		}
		if len(lats) == rec.window {
			rec.cpu = append(rec.cpu, cpu0+cpu)
		}
	}
	fill(time.Millisecond, 2*time.Millisecond, 60*us, 58*us, 70*us, 60*us)
	fill(2*time.Millisecond, 10*time.Millisecond, 100*us, 100*us, 100*us, 100*us)
	fill(time.Millisecond, 12*time.Millisecond, 62*us, 62*us, 62*us, 62*us)
	fill(time.Millisecond, 0, 10*us, 10*us) // an incomplete window
	ws := cutWindows(rec, cpu0)
	want := []windowStat{
		{p50: 60 * us, tail: 70 * us, opsPerS: 1000, cpuPerOp: 0.5},
		{p50: 100 * us, tail: 100 * us, opsPerS: 500, cpuPerOp: 2},
		{p50: 62 * us, tail: 62 * us, opsPerS: 1000, cpuPerOp: 0.5},
	}
	if !slices.Equal(ws, want) {
		t.Fatalf("windows %+v, want %+v", ws, want)
	}
	quiet := quietWindows(ws)
	if len(quiet) != 2 || quiet[0] != want[0] || quiet[1] != want[2] {
		t.Fatalf("quiet windows %+v", quiet)
	}
	res := loopResult{lat: rec.lat, attempted: len(rec.lat), wall: time.Second, windows: ws}
	m := endToEnd(res, 1)
	if got := m["latency_p50_ms"].Value; math.Abs(got-0.061) > 1e-12 {
		t.Errorf("latency_p50_ms %g, want the quiet windows' median 0.061", got)
	}
	if got := m["ops_per_s"].Value; got != 1000 {
		t.Errorf("ops_per_s %g, want 1000", got)
	}
}

// TestProbedPassIsScaledToTheQuietHost: probes at 300 µs on the quiet
// host and at 480 µs for most of the pass give a factor of 0.625, and the
// four time metrics are scaled by it.
func TestProbedPassIsScaledToTheQuietHost(t *testing.T) {
	const us = time.Microsecond
	host := readHost([]time.Duration{480 * us, 300 * us, 470 * us, 9000 * us, 310 * us, 480 * us, 490 * us, 320 * us, 500 * us})
	if host.probes != 9 || host.level != 480*us || host.quiet != 310*us || host.spent != 12350*us {
		t.Fatalf("host %+v, want 9 probes taking 12350 µs, level 480 µs, quiet 310 µs", host)
	}
	if f := (hostState{}).factor(); f != 1 {
		t.Errorf("factor of an unprobed pass %g, want 1", f)
	}
	host.quiet = 300 * us
	res := loopResult{lat: []time.Duration{80 * time.Millisecond, 160 * time.Millisecond, 320 * time.Millisecond},
		attempted: 3, wall: 2 * time.Second, cpu: 960 * time.Millisecond, host: host}
	m := endToEnd(res, 1)
	for name, want := range map[string]float64{"latency_p50_ms": 100, "latency_tail_ms": 200, "cpu_ms_per_op": 200, "ops_per_s": 2.4} {
		if got := m[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s %g, want %g", name, got, want)
		}
	}
}

// TestCompareVerdicts drives -compare over two synthetic run sets: one
// metric unchanged, one worse than its bound, one too noisy to call.
func TestCompareVerdicts(t *testing.T) {
	spec, err := loadBenchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	set := func(scale map[string]float64, noise map[string]float64) *allDoc {
		d := &allDoc{Schema: docSchema}
		for _, w := range spec.Workloads {
			for k := 0; k < 5; k++ {
				r := &runDoc{Workload: w.Name, Result: result{Metrics: map[string]metric{}}}
				for _, m := range spec.EndToEnd {
					v := 100.0
					if s, ok := scale[m.Name]; ok {
						v *= s
					}
					v *= 1 + noise[m.Name]*float64(k-2)
					r.Result.Metrics[m.Name] = metric{v, m.Unit}
				}
				d.Runs = append(d.Runs, r)
			}
		}
		return d
	}
	dir := t.TempDir()
	pa, pb := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	noise := map[string]float64{"peak_rss_mb": 0.2}
	if err := writeJSON(pa, set(nil, noise)); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(pb, set(map[string]float64{"latency_p50_ms": 1.5, "ops_per_s": 0.5}, noise)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = compareDocs(pa, pb, &out)
	if err == nil {
		t.Errorf("compare passed although two metrics are worse:\n%s", out.String())
	}
	want := map[string]string{"latency_p50_ms": "worse", "ops_per_s": "worse", "peak_rss_mb": "unresolved", "setup_s": "ok", "cpu_ms_per_op": "ok"}
	rows := 0
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		if v, ok := want[f[1]]; ok {
			rows++
			if f[len(f)-1] != v {
				t.Errorf("row %q: verdict %s, want %s", line, f[len(f)-1], v)
			}
		}
	}
	if rows != len(want)*len(spec.Workloads) {
		t.Errorf("%d verdict rows, want %d:\n%s", rows, len(want)*len(spec.Workloads), out.String())
	}
}
