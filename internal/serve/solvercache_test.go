package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"dtr/internal/direct"
	"dtr/internal/obs"
)

// tierRequest is one step of a solver-tier test sequence.
type tierRequest struct{ path, body string }

// tierSequence exercises every seam between shared tables and
// per-request views on one spec, in an order chosen to expose leaks:
// two plain requests admit the model, a replicated optimize extends its
// tables *before* the plain explain that must still report a factor-1
// build, explain runs plain / replicated / probed / both, QoS follows
// the mean on the same tables, and requests repeat (callers run it with
// the result cache off, so a repeat is a second solve).
func tierSequence(spec, objective string) []tierRequest {
	obj := `"objective": "` + objective + `"`
	repl := `"replication": {"maxFactor": 2, "budget": 1}`
	return []tierRequest{
		{"/v1/metrics", reqBody(spec, `"grid": 256, "policy": "0>1:2"`)},
		{"/v1/cdf", reqBody(spec, `"grid": 256, "policy": "0>1:2", "points": 5`)},
		{"/v1/optimize", reqBody(spec, `"grid": 256, `+obj+`, `+repl)},
		{"/v1/explain", reqBody(spec, `"grid": 256, `+obj)},
		{"/v1/explain", reqBody(spec, `"grid": 256, `+obj+`, `+repl)},
		{"/v1/explain", reqBody(spec, `"grid": 256, "probe": true, `+obj)},
		{"/v1/explain", reqBody(spec, `"grid": 256, "probe": true, `+obj+`, `+repl)},
		{"/v1/metrics", reqBody(spec, `"grid": 256, "policy": "0>1:1", "deadline": 40`)},
		{"/v1/optimize", reqBody(spec, `"grid": 256, "objective": "qos", "deadline": 40`)},
		{"/v1/bounds", reqBody(spec, `"grid": 256, "policy": "0>1:2", "deadline": 40`)},
		{"/v1/simulate", reqBody(spec, `"policy": "0>1:2", "reps": 500, "seed": 7`)},
		{"/v1/explain", reqBody(spec, `"grid": 256, `+obj)},
		{"/v1/optimize", reqBody(spec, `"grid": 256, `+obj)},
		{"/v1/metrics", reqBody(spec, `"grid": 256, "policy": "0>1:2"`)},
		// Another lattice is another model to the tier.
		{"/v1/explain", reqBody(spec, `"grid": 128, `+obj)},
	}
}

// mustPost posts and fails the test on a non-200.
func mustPost(t *testing.T, ts *httptest.Server, rq tierRequest) []byte {
	t.Helper()
	code, body := post(t, ts, rq.path, rq.body)
	if code != http.StatusOK {
		t.Fatalf("%s answered %d: %s", rq.path, code, body)
	}
	return body
}

// TestSolverTierIsInvisible: with the result cache off, a service with
// the solver-table tier and one without it answer every verb with the
// same bytes, request by request.
func TestSolverTierIsInvisible(t *testing.T) {
	for name, seq := range map[string][]tierRequest{
		"reliable":      tierSequence(specJSON, "mean"),
		"failure-prone": tierSequence(failSpecJSON, "reliability"),
	} {
		t.Run(name, func(t *testing.T) {
			_, reg, tiered := newTestService(t, Config{Workers: 2, CacheSize: -1})
			_, _, bare := newTestService(t, Config{Workers: 2, CacheSize: -1, SolverCacheBytes: -1})
			for i, rq := range seq {
				got, want := mustPost(t, tiered, rq), mustPost(t, bare, rq)
				if !bytes.Equal(got, want) {
					t.Errorf("request %d %s %s:\n  tiered: %s\n  bare:   %s", i, rq.path, rq.body, got, want)
				}
			}
			snap := reg.Snapshot()
			for _, c := range []string{"hits", "admitted", "extended"} {
				if snap.Counters["dtr_serve_solver_cache_"+c+"_total"] == 0 {
					t.Errorf("the sequence never exercised the tier's %s path: %v", c, snap.Counters)
				}
			}
		})
	}
}

// holdFirstBuilds stops the collector for the rest of the test, so a
// first sighting's private build is still there for the second to adopt.
func holdFirstBuilds(t *testing.T) {
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

// TestSolverTierBuildsOncePerModel plays one plan_fanout-shaped session
// — eight result-cache misses on one model — and counts prefix chains
// built and sweeps run: the factor-1 pair once, on the first sighting
// (private), which the second adopts and retains; the factor-2 pair when
// the replicated optimize extends the tables; and nothing else — bounds
// reads the model's tables like every other verb. Four sweeps run: the
// mean and qos optimizes and the replicated optimize's (1, 2) and (2, 1)
// combinations; explain and the (1, 1) combination read the mean sweep
// back. A three-server model then goes the same way: one chain per
// server on its first sighting, none after.
func TestSolverTierBuildsOncePerModel(t *testing.T) {
	holdFirstBuilds(t)
	_, reg, ts := newTestService(t, Config{Workers: 2})
	_, _, bare := newTestService(t, Config{Workers: 2, CacheSize: -1, SolverCacheBytes: -1})
	obs.SetDefault(reg) // direct's and policy's counters live on the process default
	t.Cleanup(func() { obs.SetDefault(nil) })

	session := []struct {
		tierRequest
		builds, sweeps uint64
	}{
		{tierRequest{"/v1/optimize", reqBody(specJSON, `"grid": 256`)}, 2, 1},
		{tierRequest{"/v1/metrics", reqBody(specJSON, `"grid": 256, "policy": "0>1:2", "deadline": 40`)}, 0, 0},
		{tierRequest{"/v1/cdf", reqBody(specJSON, `"grid": 256, "policy": "0>1:2", "points": 5`)}, 0, 0},
		{tierRequest{"/v1/explain", reqBody(specJSON, `"grid": 256`)}, 0, 0},
		{tierRequest{"/v1/metrics", reqBody(specJSON, `"grid": 256, "policy": "0>1:3", "deadline": 40`)}, 0, 0},
		{tierRequest{"/v1/bounds", reqBody(specJSON, `"grid": 256, "policy": "0>1:2", "deadline": 40`)}, 0, 0},
		{tierRequest{"/v1/optimize", reqBody(specJSON, `"grid": 256, "objective": "qos", "deadline": 40`)}, 0, 1},
		{tierRequest{"/v1/optimize", reqBody(specJSON, `"grid": 256, "replication": {"maxFactor": 2, "budget": 1}`)}, 2, 2},
		{tierRequest{"/v1/bounds", reqBody(multiSpecJSON, `"grid": 256, "policy": "0>2:2,1>2:1"`)}, 3, 0},
		{tierRequest{"/v1/metrics", reqBody(multiSpecJSON, `"grid": 256, "policy": "0>2:2"`)}, 0, 0},
		{tierRequest{"/v1/bounds", reqBody(multiSpecJSON, `"grid": 256, "policy": "0>2:2,1>2:1", "deadline": 40`)}, 0, 0},
	}
	builds, sweeps := reg.Counter("dtr_solver_builds_total"), reg.Counter("dtr_policy_sweeps_total")
	bytesBefore := 0.0
	for i, step := range session {
		if i == 8 {
			bytesBefore = reg.Snapshot().Gauges["dtr_serve_solver_cache_bytes"]
		}
		before, sweptBefore := builds.Value(), sweeps.Value()
		got := mustPost(t, ts, step.tierRequest)
		if built := builds.Value() - before; built != step.builds {
			t.Errorf("request %d %s built %d prefix chains, want %d", i, step.path, built, step.builds)
		}
		if swept := sweeps.Value() - sweptBefore; swept != step.sweeps {
			t.Errorf("request %d %s ran %d sweeps, want %d", i, step.path, swept, step.sweeps)
		}
		if want := mustPost(t, bare, step.tierRequest); !bytes.Equal(got, want) {
			t.Errorf("request %d %s:\n  tiered: %s\n  bare:   %s", i, step.path, got, want)
		}
	}
	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"dtr_serve_computes_total":               11,
		"dtr_serve_solver_cache_misses_total":    4,
		"dtr_serve_solver_cache_admitted_total":  2,
		"dtr_serve_solver_cache_hits_total":      7,
		"dtr_serve_solver_cache_extended_total":  1,
		"dtr_serve_solver_cache_evictions_total": 0,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := snap.Gauges["dtr_serve_solver_cache_entries"]; got != 2 {
		t.Errorf("tier holds %v entries after two models' sessions, want 2", got)
	}
	got := snap.Gauges["dtr_serve_solver_cache_bytes"]
	if got <= 0 || got > defaultSolverCacheBytes {
		t.Errorf("tier accounts %v bytes, want within (0, %d]", got, defaultSolverCacheBytes)
	}
	// Three started chains: a 257-bin spectrum, 13 slots and the zero-task
	// prefix each, before anything the requests folded.
	if min := 3.0 * (16*257 + 16*13 + 8*256); got-bytesBefore < min {
		t.Errorf("the three-server model is charged %v bytes, want at least %v for its three chains", got-bytesBefore, min)
	}
}

// TestSolverTierRebuildsReclaimedFirstBuild: when the collector has
// reclaimed a first sighting's private build, the second sighting builds
// the chains again, retains them and answers the same bytes.
func TestSolverTierRebuildsReclaimedFirstBuild(t *testing.T) {
	svc, reg, ts := newTestService(t, Config{Workers: 2, CacheSize: -1})
	_, _, bare := newTestService(t, Config{Workers: 2, CacheSize: -1, SolverCacheBytes: -1})
	obs.SetDefault(reg)
	t.Cleanup(func() { obs.SetDefault(nil) })
	builds := reg.Counter("dtr_solver_builds_total")
	rq := tierRequest{"/v1/metrics", reqBody(specJSON, `"grid": 256, "policy": "0>1:2"`)}

	mustPost(t, ts, rq)
	svc.solvers.mu.Lock()
	var first []*direct.Tables
	for _, wp := range svc.solvers.seen {
		first = append(first, wp.Value())
	}
	svc.solvers.mu.Unlock()
	if len(first) != 1 || first[0] == nil {
		t.Fatalf("the first sighting left %d doorkeeper entries, want one pointing at its build", len(first))
	}
	first = nil
	for i := 0; i < 10 && firstBuildAlive(svc); i++ {
		runtime.GC()
	}
	if firstBuildAlive(svc) {
		t.Fatal("the first sighting's build survived ten collections: something still holds it")
	}

	before := builds.Value()
	got := mustPost(t, ts, rq)
	if built := builds.Value() - before; built != 2 {
		t.Errorf("second sighting after a collection built %d prefix chains, want 2", built)
	}
	if want := mustPost(t, bare, rq); !bytes.Equal(got, want) {
		t.Errorf("rebuilt tables answered\n  tiered: %s\n  bare:   %s", got, want)
	}
	if a := reg.Snapshot().Counters["dtr_serve_solver_cache_admitted_total"]; a != 1 {
		t.Errorf("admitted %d entries, want 1", a)
	}
}

// firstBuildAlive reports whether any doorkeeper entry still reaches its
// first build.
func firstBuildAlive(svc *Service) bool {
	svc.solvers.mu.Lock()
	defer svc.solvers.mu.Unlock()
	for _, wp := range svc.solvers.seen {
		if wp.Value() != nil {
			return true
		}
	}
	return false
}

// TestSolverTierNeverRetainsDistinctModels: traffic that never repeats
// a model leaves hashes and weak pointers in the doorkeeper and nothing
// else.
func TestSolverTierNeverRetainsDistinctModels(t *testing.T) {
	svc, reg, ts := newTestService(t, Config{Workers: 2})
	for _, grid := range []string{"128", "256", "512"} {
		mustPost(t, ts, tierRequest{"/v1/optimize", reqBody(specJSON, `"grid": `+grid)})
	}
	snap := reg.Snapshot()
	if snap.Counters["dtr_serve_solver_cache_misses_total"] != 3 || snap.Counters["dtr_serve_solver_cache_admitted_total"] != 0 {
		t.Fatalf("distinct models: %v", snap.Counters)
	}
	if svc.solvers.ll.Len() != 0 || svc.solvers.bytes != 0 || len(svc.solvers.seen) != 3 {
		t.Fatalf("tier retained %d entries / %d bytes, doorkeeper %d keys; want 0 / 0 / 3",
			svc.solvers.ll.Len(), svc.solvers.bytes, len(svc.solvers.seen))
	}
}

// TestSolverTierConcurrentVerbsUnderEviction: eight goroutines issue
// different verbs on one model while traffic on two other models, under
// a budget that fits a single model, keeps forcing evictions. Every
// answer must be the bytes a tier-less service gives, and an entry must
// never be evicted under its user (run with -race).
func TestSolverTierConcurrentVerbsUnderEviction(t *testing.T) {
	const budget = 300 << 10 // one grid-256 model of 12 tasks, not two
	svc, reg, tiered := newTestService(t, Config{Workers: 2, MaxInflight: 8, CacheSize: -1, SolverCacheBytes: budget})
	_, _, bare := newTestService(t, Config{Workers: 2, CacheSize: -1, SolverCacheBytes: -1})

	hot := tierSequence(specJSON, "mean")[:8]
	want := make([][]byte, len(hot))
	for i, rq := range hot {
		want[i] = mustPost(t, bare, rq)
	}
	others := []tierRequest{
		{"/v1/metrics", reqBody(failSpecJSON, `"grid": 256, "policy": "0>1:2"`)},
		{"/v1/metrics", reqBody(specJSON, `"grid": 512, "policy": "0>1:2"`)},
	}

	var wg sync.WaitGroup
	for i, rq := range hot {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				code, body := post(t, tiered, rq.path, rq.body)
				if code != http.StatusOK || !bytes.Equal(body, want[i]) {
					t.Errorf("round %d %s: code %d\n  tiered: %s\n  bare:   %s", round, rq.path, code, body, want[i])
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 12; round++ {
			rq := others[round%len(others)]
			if code, body := post(t, tiered, rq.path, rq.body); code != http.StatusOK {
				t.Errorf("%s answered %d: %s", rq.path, code, body)
				return
			}
		}
	}()
	wg.Wait()

	snap := reg.Snapshot()
	if snap.Counters["dtr_serve_solver_cache_evictions_total"] == 0 {
		t.Errorf("three models under a one-model budget evicted nothing: %v", snap.Counters)
	}
	if snap.Counters["dtr_serve_solver_cache_hits_total"] == 0 {
		t.Errorf("eight verbs on one model never shared its tables: %v", snap.Counters)
	}
	// Everything is idle now, so the tier is back within its budget and
	// its books balance.
	c := svc.solvers
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*solverEntry)
		if e.users != 0 {
			t.Errorf("idle tier holds an entry with %d users", e.users)
		}
		sum += e.bytes
	}
	if sum != c.bytes || c.bytes > budget || len(c.byKey) != c.ll.Len() {
		t.Errorf("tier accounts %d bytes, entries sum to %d, budget %d, %d keys for %d entries",
			c.bytes, sum, budget, len(c.byKey), c.ll.Len())
	}
}

// TestSolverTierOversizedEntry: a model larger than the whole budget is
// served from the tier while in use and dropped when idle, not pinned.
func TestSolverTierOversizedEntry(t *testing.T) {
	svc, reg, tiered := newTestService(t, Config{Workers: 2, CacheSize: -1, SolverCacheBytes: 1})
	_, _, bare := newTestService(t, Config{Workers: 2, CacheSize: -1, SolverCacheBytes: -1})
	rq := tierRequest{"/v1/explain", reqBody(specJSON, `"grid": 256, "probe": true`)}
	want := mustPost(t, bare, rq)
	for i := 0; i < 3; i++ {
		if got := mustPost(t, tiered, rq); !bytes.Equal(got, want) {
			t.Fatalf("request %d:\n  tiered: %s\n  bare:   %s", i, got, want)
		}
		if svc.solvers.ll.Len() != 0 || svc.solvers.bytes != 0 {
			t.Fatalf("request %d left %d entries / %d bytes in a 1-byte tier", i, svc.solvers.ll.Len(), svc.solvers.bytes)
		}
	}
	// First sighting private; the second and third were admitted, served
	// and dropped on release.
	snap := reg.Snapshot()
	if a, e := snap.Counters["dtr_serve_solver_cache_admitted_total"], snap.Counters["dtr_serve_solver_cache_evictions_total"]; a != 2 || e != 2 {
		t.Fatalf("admitted %d, evicted %d; want 2 and 2", a, e)
	}
}

// TestSolverTierChargesWhatIsRead: a retained model is charged for the
// prefixes its requests folded, re-measured when a lease returns — two
// metrics requests leave it smaller than the optimize that then sweeps
// the same tables.
func TestSolverTierChargesWhatIsRead(t *testing.T) {
	svc, reg, ts := newTestService(t, Config{Workers: 2, CacheSize: -1})
	metrics := tierRequest{"/v1/metrics", reqBody(specJSON, `"grid": 256, "policy": "0>1:2"`)}
	mustPost(t, ts, metrics)
	mustPost(t, ts, metrics)
	read := svc.solvers.bytes
	if read <= 0 || svc.solvers.ll.Len() != 1 {
		t.Fatalf("second sighting retained %d entries / %d bytes", svc.solvers.ll.Len(), read)
	}
	mustPost(t, ts, metrics)
	if svc.solvers.bytes != read {
		t.Fatalf("a repeat that folded nothing moved the charge %d -> %d", read, svc.solvers.bytes)
	}
	mustPost(t, ts, tierRequest{"/v1/optimize", reqBody(specJSON, `"grid": 256`)})
	swept := svc.solvers.bytes
	if swept < read+20*8*256 {
		t.Fatalf("tier charges %d bytes after an optimize on a model charged %d for one metrics point", swept, read)
	}
	if g := reg.Snapshot().Gauges["dtr_serve_solver_cache_bytes"]; int64(g) != swept {
		t.Fatalf("gauge reads %v, tier holds %d", g, swept)
	}
}

// TestSolverTierTrace: every solve that needs the canonical solver
// carries a solver_cache span under solve saying what the tier did, a
// solver_build span only when a prefix chain was started, and
// prefix_fold spans exactly when it read a chain further than anyone
// had. The second sighting adopts the first's build, which already
// folded what the metrics request reads; the replicated optimize reads
// its (1, 1) combination back, an optimize2 span with memo=true.
func TestSolverTierTrace(t *testing.T) {
	holdFirstBuilds(t)
	_, buf, ts := newTracedService(t, Config{Workers: 2})
	steps := []struct {
		tierRequest
		hit, admitted, adopted, extended string
		builds, memo                     int
		folds                            bool
	}{
		{tierRequest{"/v1/optimize", reqBody(specJSON, `"grid": 256`)}, "false", "false", "false", "false", 1, 0, true},
		{tierRequest{"/v1/metrics", reqBody(specJSON, `"grid": 256, "policy": "0>1:2"`)}, "false", "true", "true", "false", 0, 0, false},
		{tierRequest{"/v1/cdf", reqBody(specJSON, `"grid": 256, "policy": "0>1:2", "points": 5`)}, "true", "false", "false", "false", 0, 0, false},
		{tierRequest{"/v1/optimize", reqBody(specJSON, `"grid": 256, "replication": {"maxFactor": 2}`)}, "true", "false", "false", "true", 1, 1, true},
	}
	for i, step := range steps {
		buf.Reset()
		mustPost(t, ts, step.tierRequest)
		var rec obs.TraceRecord
		if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &rec); err != nil {
			t.Fatalf("request %d: exported trace: %v\n%s", i, err, buf.Bytes())
		}
		var solveID string
		var tier *obs.SpanRecord
		builds, folds, memo := 0, 0, 0
		for j, sp := range rec.Spans {
			switch sp.Name {
			case "solve":
				solveID = sp.ID
			case "solver_cache":
				tier = &rec.Spans[j]
			case "solver_build":
				builds++
			case "optimize2":
				if sp.Attrs["memo"] == "true" {
					memo++
				}
			case "prefix_fold":
				folds++
				if a := sp.Attrs; a["server"] == "" || a["from"] == "" || a["to"] == "" {
					t.Errorf("request %d %s: prefix_fold attrs %v, want server, from and to", i, step.path, a)
				}
			}
		}
		if tier == nil || tier.Parent != solveID {
			t.Fatalf("request %d %s: no solver_cache span under solve: %+v", i, step.path, rec.Spans)
		}
		if a := tier.Attrs; a["hit"] != step.hit || a["admitted"] != step.admitted || a["adopted"] != step.adopted || a["extended"] != step.extended || a["bytes"] == "" || a["bytes"] == "0" {
			t.Errorf("request %d %s: solver_cache attrs %v, want hit=%s admitted=%s adopted=%s extended=%s and bytes", i, step.path, a, step.hit, step.admitted, step.adopted, step.extended)
		}
		if builds != step.builds || memo != step.memo || (folds > 0) != step.folds {
			t.Errorf("request %d %s: %d solver_build, %d memo optimize2 and %d prefix_fold spans, want %d, %d and folds=%v", i, step.path, builds, memo, folds, step.builds, step.memo, step.folds)
		}
	}
}
