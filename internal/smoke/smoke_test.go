package smoke

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestSmoke builds the binaries once and runs the seven end-to-end checks
// on them in parallel.
func TestSmoke(t *testing.T) {
	bins = build(t)
	t.Run("Serve", testServe)
	t.Run("Adapt", testAdapt)
	t.Run("Replicate", testReplicate)
	t.Run("Ingest", testIngest)
	t.Run("Cluster", testCluster)
	t.Run("Examples", testExamples)
	t.Run("Lab", testLab)
}

// testExamples runs the examples no other subtest drives; each must exit
// 0 and print the line that opens or heads its report.
func testExamples(t *testing.T) {
	t.Parallel()
	for _, c := range []struct{ name, line string }{
		{"quickstart", "policy (L12, L21) -> mean time, QoS(100 s)"},
		{"cluster", "Algorithm-1 policy (rows: from, cols: to):"},
		{"deadline", "deadline: 180 s, workload: 100 + 50 frames"},
		{"reliability", "reliability-optimal policy: ship 27 tasks 1→2, 0 tasks 2→1"},
		{"rebalance", "cheap transfers (0.2 s/task):"},
		{"testbed", "non-Markovian theory:"},
	} {
		contains(t, "the "+c.name+" example's output", run(t, 0, c.name), c.line)
	}
}

// testLab runs the experiment lab: a -trace-out it cannot create is a
// usage error, and fig3 prints its CSV header.
func testLab(t *testing.T) {
	t.Parallel()
	run(t, 2, "dtrlab", "-trace-out", filepath.Join(t.TempDir(), "missing", "x"), "fig1")
	contains(t, "dtrlab -csv fig3", run(t, 0, "dtrlab", "-csv", "fig3"), "L12,L21=0,L21=1,L21=2,L21=5\n")
}

// testServe boots dtrserved, drives every endpoint through the serve
// example, checks the solver-table tier by its counters and, after a
// clean drain, the span file -trace-out streamed.
func testServe(t *testing.T) {
	t.Parallel()
	run(t, 2, "dtrserved", "-log-level", "bogus")
	dir := t.TempDir()
	addrFile, spans := filepath.Join(dir, "addr"), filepath.Join(dir, "spans.jsonl")
	// The collector is off (the daemon allocates little here), so a
	// model's first, private build is always there for its second
	// sighting to adopt and the chain counts below are exact.
	d := start(t, []string{"GOGC=off"}, "dtrserved", "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-trace-out", spans)
	addr := d.addr(t, addrFile)
	base := "http://" + addr
	run(t, 0, "serve", "-addr", addr) // exits non-zero on any non-2xx answer
	m := scrape(t, base)
	family(t, m, "dtr_serve_requests_total")
	family(t, m, "dtr_serve_cache_hits_total")

	// Optimize → metrics → cdf → bounds on one spec: the first request
	// builds privately, the second adopts that build and retains it, the
	// third and the fourth find the model's tables, a tier hit each and
	// not one prefix chain built. A five-server bounds request, sent
	// twice, then takes an n-server model through the same tier: five
	// chains on its first sighting, none on the second, which retains
	// them and is accounted.
	post := func(verb, spec, fields string) {
		call(t, base+"/v1/"+verb, `{"spec":`+spec+`,"grid":512`+fields+`}`)
	}
	const (
		pair     = `{"servers":[{"queue":9,"service":{"type":"exponential","mean":4}},{"queue":5,"service":{"type":"exponential","mean":2}}],"transfer":{"type":"exponential","perTaskMean":1}}`
		fleet    = `{"servers":[{"queue":6,"service":{"type":"exponential","mean":5}},{"queue":5,"service":{"type":"exponential","mean":4}},{"queue":4,"service":{"type":"exponential","mean":3}},{"queue":2,"service":{"type":"exponential","mean":2}},{"queue":1,"service":{"type":"exponential","mean":1}}],"transfer":{"type":"exponential","perTaskMean":1}}`
		builds   = "dtr_solver_builds_total"
		tierHits = "dtr_serve_solver_cache_hits_total"
		tierSize = "dtr_serve_solver_cache_bytes"
	)
	post("optimize", pair, "")
	post("metrics", pair, `,"policy":"0>1:2"`)
	before := scrape(t, base)
	post("cdf", pair, `,"policy":"0>1:2","points":5`)
	post("bounds", pair, `,"policy":"0>1:2","deadline":40`)
	after := scrape(t, base)
	if hits := after[tierHits] - before[tierHits]; hits != 2 {
		t.Fatalf("cdf and bounds on a retained spec hit the solver-table tier %v times, want 2", hits)
	}
	if before[builds] < 1 || after[builds] != before[builds] {
		t.Fatalf("%s moved %v -> %v on the third and fourth requests", builds, before[builds], after[builds])
	}
	post("bounds", fleet, `,"policy":"0>4:2,1>4:2"`)
	post("bounds", fleet, `,"policy":"0>4:2,1>4:2","deadline":40`)
	last := scrape(t, base)
	if n := last[builds] - after[builds]; n != 5 || last[tierSize] <= after[tierSize] {
		t.Fatalf("two five-server bounds requests built %v chains (want 5) and moved the tier's bytes %v -> %v",
			n, after[tierSize], last[tierSize])
	}

	// -trace-out: after the drain, one line per planning request the
	// daemon answered, each a /v1/ root, /v1/optimize among them.
	sent := int(family(t, last, "dtr_serve_requests_total"))
	d.drain(t)
	b, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	roots := regexp.MustCompile(`(?m)^\{"v":1,"traceId":"[0-9a-f]{32}","name":"/v1/[a-z]*","start":`)
	lines, traced := strings.Count(string(b), "\n"), len(roots.FindAll(b, -1))
	if sent < 1 || lines != sent || traced != sent || !strings.Contains(string(b), `"name":"/v1/optimize","start":`) {
		t.Fatalf("-trace-out holds %d lines, %d of them /v1/ roots, for %d requests", lines, traced, sent)
	}
}

// testAdapt closes the loop: the drift example captures a trace, which
// dtradapt refits and dtrplan plans.
func testAdapt(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	trace := filepath.Join(dir, "run.jsonl")
	contains(t, "the drift example's output", run(t, 0, "adapt", "-trace", trace), "replanning cut the mean")
	nonEmpty(t, trace)
	refit(t, dir, "-trace", trace)
}

// refit batch-fits source with dtradapt -once, which must write a spec
// and a policy, and plans them with dtrplan metrics.
func refit(t *testing.T, dir string, source ...string) {
	t.Helper()
	spec, policy := filepath.Join(dir, "spec.json"), filepath.Join(dir, "policy.txt")
	decision := run(t, 0, "dtradapt", append(source, "-queues", "40,10", "-once",
		"-families", "exponential,gamma", "-spec-out", spec, "-policy-out", policy)...)
	contains(t, "the dtradapt decision", decision, `"reason": "forced"`)
	nonEmpty(t, spec)
	out := run(t, 0, "dtrplan", "-model", spec, "metrics", "-policy", nonEmpty(t, policy))
	contains(t, "dtrplan metrics on the fitted spec", out, "mean")
}

// testReplicate runs the straggler demo, then plans the same scenario
// through dtrplan's -replicate-max flags and the explain artifact.
func testReplicate(t *testing.T) {
	t.Parallel()
	contains(t, "the straggler demo's output", run(t, 0, "replicate"), "simulation confirms the replicated plan")
	dir := t.TempDir()
	spec, artifact := filepath.Join(dir, "spec.json"), filepath.Join(dir, "explain.json")
	err := os.WriteFile(spec, []byte(`{
  "servers": [
    {"queue": 14, "service": {"type": "exponential", "mean": 1},
     "slowdown": {"prob": 0.25, "factor": 10}},
    {"queue": 8, "service": {"type": "exponential", "mean": 2}}
  ],
  "transfer": {"type": "exponential", "perTaskMean": 2}
}`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	plan := func(flags ...string) string {
		return run(t, 0, "dtrplan", append([]string{"-model", spec, "-grid", "4096", "optimize"}, flags...)...)
	}
	contains(t, "the replicated plan", plan("-replicate-max", "3"), "replicate:")
	plan("-replicate-max", "2", "-replicate-budget", "2", "-explain", artifact)
	explain := nonEmpty(t, artifact)
	contains(t, "the explain artifact", explain, `"replication"`)
	contains(t, "the explain artifact", explain, `"combos"`)
	contains(t, "the plan under a copy budget", plan("-replicate-max", "3", "-replicate-budget", "1"), "replicate:")
}

// testIngest boots dtringest, emits a stream over UDP and HTTP with the
// ingest example, refits from the tenant's snapshot and drains.
func testIngest(t *testing.T) {
	t.Parallel()
	run(t, 2, "dtringest", "-log-level", "bogus")
	dir := t.TempDir()
	httpFile, udpFile := filepath.Join(dir, "addr"), filepath.Join(dir, "udpaddr")
	// A long window, so nothing the emitter sends rotates out mid-test.
	d := start(t, nil, "dtringest", "-http", "127.0.0.1:0", "-udp", "127.0.0.1:0",
		"-addr-file", httpFile, "-udp-addr-file", udpFile, "-window", "5m", "-windows", "3")
	addr, udp := d.addr(t, httpFile), d.addr(t, udpFile)
	run(t, 0, "ingest", "-http", addr, "-udp", udp, "-tenant", "acme")
	refit(t, dir, "-ingest", "http://"+addr, "-tenant", "acme")
	m := scrape(t, "http://"+addr)
	family(t, m, "dtr_ingest_events_total")
	family(t, m, "dtr_ingest_snapshots_total")
	d.drain(t)
}

// testCluster boots a three-replica fleet: compute-once routing by
// counter deltas, the owner killed and ejected while the survivors keep
// answering, then a drain to a snapshot and a warm restart from it.
func testCluster(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	// Every port up front: -peers is static, so every replica must know
	// the whole fleet before any of them boots.
	urls := make([]string, 3)
	for i, port := range freePorts(t, 3) {
		urls[i] = fmt.Sprintf("http://127.0.0.1:%d", port)
	}
	replica := func(i int) *proc {
		return start(t, nil, "dtrserved", "-addr", strings.TrimPrefix(urls[i], "http://"), "-self", urls[i],
			"-peers", strings.Join(urls, ","), "-probe-interval", "250ms",
			"-cache-snapshot", filepath.Join(dir, fmt.Sprint("snap", i)))
	}
	ready := func(i int) {
		poll(t, urls[i]+" is ready", func() bool { _, err := fetch(urls[i]+"/readyz", ""); return err == nil })
	}
	procs := []*proc{replica(0), replica(1), replica(2)}
	for i := range procs {
		ready(i)
	}
	spec, err := os.ReadFile(filepath.Join(root, "examples", "specs", "testbed.json"))
	if err != nil {
		t.Fatal(err)
	}
	optimize := func(i, grid int) string {
		return call(t, urls[i]+"/v1/optimize", fmt.Sprintf(`{"spec": %s, "grid": %d, "objective": "reliability"}`, spec, grid))
	}

	// The same request through two replicas is computed once fleet-wide,
	// and at least one of them forwards it to its owner.
	first := optimize(0, 1024)
	if optimize(1, 1024) != first {
		t.Fatal("same request answered differently by two replicas")
	}
	computes := make([]float64, 3)
	var total, forwarded float64
	for i, u := range urls {
		m := scrape(t, u)
		computes[i] = m["dtr_serve_computes_total"]
		total += computes[i]
		forwarded += m["dtr_serve_forwarded_total"]
	}
	if total != 1 {
		t.Fatalf("fleet computed the request %v times, want exactly 1", total)
	}
	if forwarded < 1 {
		t.Fatalf("no replica forwarded to the owner (forwarded=%v)", forwarded)
	}

	// Kill the owner. Replicas 0 and 1 both served the request and hold
	// it in cache: whichever survives answers it at once, and with the
	// third replica answers a fresh key once the dead peer is ejected.
	owner := slices.Index(computes, 1)
	warm := 0
	if owner == 0 {
		warm = 1
	}
	other := 3 - owner - warm
	procs[owner].kill()
	if optimize(warm, 1024) != first {
		t.Fatal("cached answer changed after owner death")
	}
	poll(t, "the dead peer is ejected", func() bool { return scrape(t, urls[warm])["dtr_cluster_peers_alive"] == 2 })
	if optimize(warm, 1088) != optimize(other, 1088) {
		t.Fatal("survivors disagree on a fresh request")
	}

	// Drain the warm survivor to a snapshot; restarted, it loads the
	// snapshot and answers from it without a compute.
	procs[warm].drain(t)
	nonEmpty(t, filepath.Join(dir, fmt.Sprint("snap", warm)))
	procs[warm] = replica(warm)
	ready(warm)
	if n := scrape(t, urls[warm])["dtr_serve_snapshot_loaded_total"]; n < 1 {
		t.Fatalf("restarted replica loaded %v snapshot entries", n)
	}
	if optimize(warm, 1024) != first {
		t.Fatal("warm-restarted answer differs from the original")
	}
	m := scrape(t, urls[warm])
	if m["dtr_serve_computes_total"] != 0 || m["dtr_serve_cache_hits_total"] < 1 {
		t.Fatalf("warm restart: %v computes (want 0), %v cache hits (want ≥ 1)",
			m["dtr_serve_computes_total"], m["dtr_serve_cache_hits_total"])
	}
}
