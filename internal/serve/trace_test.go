package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dtr/internal/obs"
)

// newTracedService builds a service with a tracer whose exports land in
// the returned buffer, mounted together with the obs debug endpoints
// (so /debug/requests serves this tracer's ring).
func newTracedService(t *testing.T, cfg Config) (*obs.Tracer, *bytes.Buffer, *httptest.Server) {
	t.Helper()
	buf := &bytes.Buffer{}
	tracer := obs.NewTracer(buf)
	old := obs.DefaultTracer()
	obs.SetTracer(tracer)
	t.Cleanup(func() { obs.SetTracer(old) })

	reg := obs.NewRegistry()
	cfg.Registry = reg
	cfg.Tracer = tracer
	svc := New(cfg)
	mux := http.NewServeMux()
	svc.Register(mux)
	obs.Register(mux, reg, false)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return tracer, buf, ts
}

// spanNames flattens a trace record into its span-name set.
func spanNames(rec *obs.TraceRecord) map[string]bool {
	out := map[string]bool{}
	for _, s := range rec.Spans {
		out[s.Name] = true
	}
	return out
}

func TestOptimizeSpanTreeOnDebugRequests(t *testing.T) {
	_, _, ts := newTracedService(t, Config{Workers: 2})

	ingress := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/optimize",
		strings.NewReader(reqBody(specJSON, `"grid": 512`)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceparentHeader, ingress)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize answered %d", resp.StatusCode)
	}

	// Egress: the response traceparent continues the caller's trace.
	tp := resp.Header.Get(obs.TraceparentHeader)
	tid, _, ok := obs.ParseTraceparent(tp)
	if !ok {
		t.Fatalf("response traceparent %q invalid", tp)
	}
	if tid.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("response trace id = %s, want the ingress id", tid)
	}

	// /debug/requests must show the finished tree: root request span
	// with cache lookup, queue wait, solve and the solver phases below.
	dbg, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Body.Close()
	var snap obs.RequestsSnapshot
	if err := json.NewDecoder(dbg.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	var rec *obs.TraceRecord
	for _, r := range snap.Recent {
		if r.Name == "/v1/optimize" {
			rec = r
			break
		}
	}
	if rec == nil {
		t.Fatalf("no /v1/optimize trace on /debug/requests: %+v", snap.Recent)
	}
	if rec.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("exported trace id = %s", rec.TraceID)
	}
	names := spanNames(rec)
	for _, want := range []string{"/v1/optimize", "cache_lookup", "queue_wait", "solve", "solver_build", "optimize2", "sweep"} {
		if !names[want] {
			t.Errorf("span %q missing from the tree: have %v", want, names)
		}
	}
}

func TestTraceparentMalformedFallsBack(t *testing.T) {
	_, _, ts := newTracedService(t, Config{Workers: 2})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/metrics",
		strings.NewReader(reqBody(specJSON, `"grid": 256`)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceparentHeader, "00-THIS-IS-NOT-A-TRACEPARENT")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	tp := resp.Header.Get(obs.TraceparentHeader)
	tid, _, ok := obs.ParseTraceparent(tp)
	if !ok {
		t.Fatalf("fallback traceparent %q invalid", tp)
	}
	if tid.IsZero() {
		t.Error("fallback minted a zero trace id")
	}
}

func TestTracingOffNoHeader(t *testing.T) {
	_, _, ts := newTestService(t, Config{Workers: 2})
	code, _ := post(t, ts, "/v1/metrics", reqBody(specJSON, `"grid": 256`))
	if code != http.StatusOK {
		t.Fatalf("metrics answered %d", code)
	}
	resp, err := http.Post(ts.URL+"/v1/metrics", "application/json",
		strings.NewReader(reqBody(specJSON, `"grid": 256`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h := resp.Header.Get(obs.TraceparentHeader); h != "" {
		t.Errorf("untraced service sent traceparent %q", h)
	}
}

// TestTracingBitIdentity proves tracing is purely observational: the
// same requests against a traced and an untraced service produce
// byte-identical response bodies — including simulate, whose PRNG stream
// would expose any randomness consumed by the tracing layer.
func TestTracingBitIdentity(t *testing.T) {
	_, _, plain := newTestService(t, Config{Workers: 2, CacheSize: -1})
	_, _, traced := newTracedService(t, Config{Workers: 2, CacheSize: -1})

	requests := []struct{ path, body string }{
		{"/v1/optimize", reqBody(specJSON, `"grid": 512`)},
		{"/v1/optimize", reqBody(failSpecJSON, `"grid": 512, "objective": "reliability"`)},
		{"/v1/metrics", reqBody(specJSON, `"grid": 512, "policy": "0>1:2", "deadline": 40`)},
		{"/v1/simulate", reqBody(specJSON, `"policy": "0>1:2", "reps": 2000, "seed": 7`)},
		{"/v1/cdf", reqBody(specJSON, `"grid": 512, "policy": "0>1:2", "points": 5`)},
	}
	for _, rq := range requests {
		codeA, bodyA := post(t, plain, rq.path, rq.body)
		codeB, bodyB := post(t, traced, rq.path, rq.body)
		if codeA != http.StatusOK || codeB != http.StatusOK {
			t.Fatalf("%s: codes %d/%d: %s %s", rq.path, codeA, codeB, bodyA, bodyB)
		}
		if !bytes.Equal(bodyA, bodyB) {
			t.Errorf("%s: traced body differs from untraced:\n  plain:  %s\n  traced: %s", rq.path, bodyA, bodyB)
		}
	}
}

// TestBatchPerVerbMetrics checks the per-verb instrumentation satellite:
// batch members must count toward dtr_serve_verb_requests_total and the
// per-verb latency histogram exactly like direct calls.
func TestBatchPerVerbMetrics(t *testing.T) {
	_, reg, ts := newTestService(t, Config{Workers: 2})

	body := `{"requests": [
		{"verb": "optimize", "spec": ` + specJSON + `, "grid": 512},
		{"verb": "metrics", "spec": ` + specJSON + `, "grid": 512, "policy": "0>1:1"},
		{"verb": "metrics", "spec": ` + specJSON + `, "grid": 512, "policy": "0>1:2"},
		{"verb": "nope", "spec": ` + specJSON + `}
	]}`
	code, resp := post(t, ts, "/v1/batch", body)
	if code != http.StatusOK {
		t.Fatalf("batch answered %d: %s", code, resp)
	}

	snap := reg.Snapshot()
	for metric, want := range map[string]uint64{
		`dtr_serve_verb_requests_total{verb="optimize",code="200"}`: 1,
		`dtr_serve_verb_requests_total{verb="metrics",code="200"}`:  2,
		`dtr_serve_verb_requests_total{verb="nope",code="400"}`:     1,
	} {
		if got := snap.Counters[metric]; got != want {
			t.Errorf("%s = %d, want %d (have %v)", metric, got, want, snap.Counters)
		}
	}
	for _, metric := range []string{
		`dtr_serve_verb_latency_seconds{verb="optimize"}`,
		`dtr_serve_verb_latency_seconds{verb="metrics"}`,
	} {
		h, ok := snap.Histograms[metric]
		if !ok || h.Count == 0 {
			t.Errorf("histogram %s missing or empty (have %v)", metric, snapKeys(snap))
		}
	}
}

func snapKeys(s obs.Snapshot) []string {
	var out []string
	for k := range s.Histograms {
		out = append(out, k)
	}
	return out
}
