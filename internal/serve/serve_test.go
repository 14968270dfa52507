package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dtr/internal/obs"
)

// specJSON is a small, fast two-server system: exponential laws keep
// every solver cheap so the suite stays quick.
const specJSON = `{
  "servers": [
    {"queue": 8, "service": {"type": "exponential", "mean": 4}},
    {"queue": 4, "service": {"type": "exponential", "mean": 2}}
  ],
  "transfer": {"type": "exponential", "perTaskMean": 1}
}`

// failSpecJSON adds failure laws (for reliability-flavored answers).
const failSpecJSON = `{
  "servers": [
    {"queue": 6, "service": {"type": "exponential", "mean": 4},
     "failure": {"type": "exponential", "mean": 200}},
    {"queue": 3, "service": {"type": "exponential", "mean": 2},
     "failure": {"type": "exponential", "mean": 100}}
  ],
  "transfer": {"type": "exponential", "perTaskMean": 1}
}`

// multiSpecJSON is a three-server system (no analytic metrics).
const multiSpecJSON = `{
  "servers": [
    {"queue": 6, "service": {"type": "exponential", "mean": 3}},
    {"queue": 4, "service": {"type": "exponential", "mean": 2}},
    {"queue": 2, "service": {"type": "exponential", "mean": 1}}
  ],
  "transfer": {"type": "exponential", "perTaskMean": 1}
}`

// newTestService builds a service + registry + httptest server.
func newTestService(t *testing.T, cfg Config) (*Service, *obs.Registry, *httptest.Server) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Registry = reg
	svc := New(cfg)
	ts := httptest.NewServer(handler(svc))
	t.Cleanup(ts.Close)
	return svc, reg, ts
}

// handler returns svc on a fresh mux.
func handler(svc *Service) http.Handler {
	mux := http.NewServeMux()
	svc.Register(mux)
	return mux
}

// post sends body to path and returns the status and response bytes.
func post(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// reqBody builds a request document around a spec.
func reqBody(spec string, extra string) string {
	if extra == "" {
		return fmt.Sprintf(`{"spec": %s}`, spec)
	}
	return fmt.Sprintf(`{"spec": %s, %s}`, spec, extra)
}

// grabSlot takes the single admission slot of a MaxInflight-1 service so
// tests can control when computations may proceed.
func grabSlot(t *testing.T, svc *Service) func() {
	t.Helper()
	select {
	case <-svc.admit.slots:
	case <-time.After(5 * time.Second):
		t.Fatal("admission slot not available")
	}
	return func() { svc.admit.slots <- struct{}{} }
}

func TestEndpointsHappyPath(t *testing.T) {
	_, _, ts := newTestService(t, Config{Workers: 2})

	t.Run("optimize", func(t *testing.T) {
		code, body := post(t, ts, "/v1/optimize", reqBody(specJSON, `"grid": 512`))
		if code != http.StatusOK {
			t.Fatalf("code %d: %s", code, body)
		}
		var r OptimizeResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		if r.Objective != "mean" || len(r.Matrix) != 2 {
			t.Fatalf("response: %+v", r)
		}
		if r.Value <= 0 {
			t.Fatalf("two-server optimize should report a positive value, got %v", r.Value)
		}
	})

	t.Run("optimize-multiserver", func(t *testing.T) {
		code, body := post(t, ts, "/v1/optimize", reqBody(multiSpecJSON, `"grid": 512`))
		if code != http.StatusOK {
			t.Fatalf("code %d: %s", code, body)
		}
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(body, &raw); err != nil {
			t.Fatal(err)
		}
		if string(raw["value"]) != "null" {
			t.Fatalf("multi-server value should be null, got %s", raw["value"])
		}
	})

	t.Run("metrics", func(t *testing.T) {
		code, body := post(t, ts, "/v1/metrics", reqBody(specJSON, `"grid": 512, "policy": "0>1:3", "deadline": 30`))
		if code != http.StatusOK {
			t.Fatalf("code %d: %s", code, body)
		}
		var r MetricsResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		if r.Reliability != 1 {
			t.Fatalf("reliable system should report reliability 1, got %v", r.Reliability)
		}
		if r.MeanTime <= 0 || r.QoS <= 0 || r.QoS > 1 {
			t.Fatalf("response: %+v", r)
		}
	})

	t.Run("metrics-null-mean", func(t *testing.T) {
		code, body := post(t, ts, "/v1/metrics", reqBody(failSpecJSON, `"grid": 512, "policy": "0>1:2"`))
		if code != http.StatusOK {
			t.Fatalf("code %d: %s", code, body)
		}
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(body, &raw); err != nil {
			t.Fatal(err)
		}
		if string(raw["meanTime"]) != "null" {
			t.Fatalf("failure-prone mean time should be null, got %s", raw["meanTime"])
		}
	})

	t.Run("simulate", func(t *testing.T) {
		code, body := post(t, ts, "/v1/simulate", reqBody(specJSON, `"policy": "0>1:3", "reps": 400, "seed": 7, "deadline": 30`))
		if code != http.StatusOK {
			t.Fatalf("code %d: %s", code, body)
		}
		var r SimulateResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		if r.Reps != 400 || r.Seed != 7 || r.Reliability != 1 || r.MeanTime <= 0 {
			t.Fatalf("response: %+v", r)
		}
	})

	t.Run("bounds", func(t *testing.T) {
		code, body := post(t, ts, "/v1/bounds", reqBody(multiSpecJSON, `"grid": 512, "policy": "0>2:2,1>2:1", "deadline": 25`))
		if code != http.StatusOK {
			t.Fatalf("code %d: %s", code, body)
		}
		var r BoundsResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		if r.Optimistic.Reliability < r.Pessimistic.Reliability {
			t.Fatalf("bounds inverted: %+v", r)
		}
	})

	t.Run("cdf", func(t *testing.T) {
		code, body := post(t, ts, "/v1/cdf", reqBody(specJSON, `"grid": 512, "policy": "0>1:3", "points": 10, "tmax": 60`))
		if code != http.StatusOK {
			t.Fatalf("code %d: %s", code, body)
		}
		var r CDFResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		if len(r.Points) != 10 {
			t.Fatalf("want 10 points, got %d", len(r.Points))
		}
		for i := 1; i < len(r.Points); i++ {
			if r.Points[i].P < r.Points[i-1].P {
				t.Fatalf("CDF not monotone: %+v", r.Points)
			}
		}
	})

	t.Run("healthz", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz: %d", resp.StatusCode)
		}
	})
}

func TestBatch(t *testing.T) {
	_, reg, ts := newTestService(t, Config{Workers: 2})
	body := fmt.Sprintf(`{"requests": [
		{"verb": "optimize", "spec": %s, "grid": 512},
		{"verb": "metrics", "spec": %s, "grid": 512, "policy": "0>1:3"},
		{"verb": "optimize", "spec": %s, "grid": 512},
		{"verb": "nope", "spec": %s}
	]}`, specJSON, specJSON, specJSON, specJSON)
	code, respBody := post(t, ts, "/v1/batch", body)
	if code != http.StatusOK {
		t.Fatalf("code %d: %s", code, respBody)
	}
	var r BatchResponse
	if err := json.Unmarshal(respBody, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Results) != 4 {
		t.Fatalf("want 4 results, got %d", len(r.Results))
	}
	if r.Results[0].Code != 200 || r.Results[1].Code != 200 || r.Results[2].Code != 200 {
		t.Fatalf("results: %+v", r.Results)
	}
	if r.Results[3].Code != 400 || !strings.Contains(r.Results[3].Error, "unknown verb") {
		t.Fatalf("bad verb result: %+v", r.Results[3])
	}
	// Items 0 and 2 are identical: they must have shared one execution
	// (coalesced or cache hit) and answered identically.
	if !bytes.Equal(r.Results[0].Body, r.Results[2].Body) {
		t.Fatalf("identical sub-requests answered differently:\n%s\n%s", r.Results[0].Body, r.Results[2].Body)
	}
	snap := reg.Snapshot()
	optimizeComputes := snap.Counters["dtr_serve_computes_total"]
	if optimizeComputes != 2 { // one optimize + one metrics
		t.Fatalf("computes = %d, want 2 (identical items share one)", optimizeComputes)
	}

	if code, body := post(t, ts, "/v1/batch", `{"requests": []}`); code != http.StatusBadRequest {
		t.Fatalf("empty batch: code %d: %s", code, body)
	}
}

func TestBadRequests(t *testing.T) {
	_, _, ts := newTestService(t, Config{Workers: 1})
	cases := []struct {
		name, path, body string
		wantCode         int
		wantInError      string
	}{
		{"not-json", "/v1/optimize", `{`, 400, "invalid request JSON"},
		{"unknown-field", "/v1/optimize", `{"spec": {}, "bogus": 1}`, 400, "bogus"},
		{"missing-spec", "/v1/optimize", `{}`, 400, "spec: required"},
		{"invalid-spec", "/v1/optimize", reqBody(`{"servers":[{"queue":1,"service":{"type":"pareto","mean":1,"alpha":0.5}}],"transfer":{"type":"exponential","perTaskMean":1}}`, ""), 400, "servers[0].service.alpha"},
		{"negative-queue", "/v1/optimize", reqBody(`{"servers":[{"queue":-2,"service":{"type":"exponential","mean":1}}],"transfer":{"type":"exponential","perTaskMean":1}}`, ""), 400, "servers[0].queue"},
		{"bad-objective", "/v1/optimize", reqBody(specJSON, `"objective": "speed"`), 400, "unknown objective"},
		{"mean-with-failures", "/v1/optimize", reqBody(failSpecJSON, `"objective": "mean"`), 400, "failure-prone"},
		{"qos-no-deadline", "/v1/optimize", reqBody(specJSON, `"objective": "qos"`), 400, "deadline"},
		{"bad-policy", "/v1/metrics", reqBody(specJSON, `"policy": "0>9:3"`), 400, "server"},
		{"policy-exceeds-queue", "/v1/metrics", reqBody(specJSON, `"policy": "0>1:999"`), 400, "policy"},
		{"metrics-3-servers", "/v1/metrics", reqBody(multiSpecJSON, `"policy": "0>2:1,1>2:1"`), 400, "converges on server 2"},
		{"grid-too-big", "/v1/optimize", reqBody(specJSON, `"grid": 10000000`), 400, "grid"},
		{"reps-too-big", "/v1/simulate", reqBody(specJSON, `"reps": 99999999`), 400, "reps"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, body := post(t, ts, c.path, c.body)
			if code != c.wantCode {
				t.Fatalf("code %d, want %d: %s", code, c.wantCode, body)
			}
			var e ErrorResponse
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("error body not JSON: %s", body)
			}
			if !strings.Contains(e.Error, c.wantInError) {
				t.Fatalf("error %q does not mention %q", e.Error, c.wantInError)
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, _, ts := newTestService(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/optimize")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: %d", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != "POST" {
		t.Fatalf("Allow header %q", allow)
	}
}

func TestBodyTooLarge(t *testing.T) {
	_, _, ts := newTestService(t, Config{Workers: 1, MaxBody: 64})
	code, body := post(t, ts, "/v1/optimize", reqBody(specJSON, `"grid": 512`))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("code %d: %s", code, body)
	}
}

func TestDeadlineExceeded504(t *testing.T) {
	svc, _, ts := newTestService(t, Config{Workers: 1, MaxInflight: 1, Timeout: 300 * time.Millisecond})
	release := grabSlot(t, svc)
	defer release()
	// The admission slot is held, so the flight cannot start; this
	// caller's 1 ms budget expires while it queues.
	code, body := post(t, ts, "/v1/optimize", reqBody(specJSON, `"grid": 512, "timeoutMs": 1`))
	if code != http.StatusGatewayTimeout {
		t.Fatalf("code %d: %s", code, body)
	}
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "deadline exceeded") {
		t.Fatalf("error body: %s", body)
	}
}

func TestOverCapacity429(t *testing.T) {
	svc, _, ts := newTestService(t, Config{Workers: 1, MaxInflight: 1, MaxQueued: -1, Timeout: 5 * time.Second})
	release := grabSlot(t, svc)
	defer release()
	// No wait queue and the only slot is held: immediate rejection.
	code, body := post(t, ts, "/v1/optimize", reqBody(specJSON, `"grid": 512`))
	if code != http.StatusTooManyRequests {
		t.Fatalf("code %d: %s", code, body)
	}
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "over capacity") {
		t.Fatalf("error body: %s", body)
	}
}

func TestCacheHitMissAndDeterminism(t *testing.T) {
	_, reg, ts := newTestService(t, Config{Workers: 2})
	body := reqBody(specJSON, `"grid": 512`)

	code1, resp1 := post(t, ts, "/v1/optimize", body)
	if code1 != http.StatusOK {
		t.Fatalf("code %d: %s", code1, resp1)
	}
	s1 := reg.Snapshot()
	if s1.Counters["dtr_serve_cache_misses_total"] != 1 || s1.Counters["dtr_serve_cache_hits_total"] != 0 {
		t.Fatalf("after first request: %v", s1.Counters)
	}

	code2, resp2 := post(t, ts, "/v1/optimize", body)
	if code2 != http.StatusOK {
		t.Fatalf("code %d: %s", code2, resp2)
	}
	s2 := reg.Snapshot()
	if s2.Counters["dtr_serve_cache_hits_total"] != 1 {
		t.Fatalf("second identical request should hit the cache: %v", s2.Counters)
	}
	if s2.Counters["dtr_serve_computes_total"] != 1 {
		t.Fatalf("one solver execution expected, got %d", s2.Counters["dtr_serve_computes_total"])
	}
	if !bytes.Equal(resp1, resp2) {
		t.Fatalf("responses differ:\n%s\n%s", resp1, resp2)
	}
	if g := s2.Gauges["dtr_serve_cache_entries"]; g != 1 {
		t.Fatalf("cache entries gauge = %g", g)
	}

	// A semantically identical request spelled differently (field order,
	// defaults explicit, whitespace, zero policy spelled out) also hits.
	alt := fmt.Sprintf(`{"grid": 512, "policy": "", "spec": %s}`, `{
	  "transfer": {"perTaskMean": 1, "type": "exponential"},
	  "servers": [
	    {"queue": 8, "service": {"mean": 4, "type": "exponential"}},
	    {"queue": 4, "service": {"mean": 2, "type": "exponential"}}
	  ]}`)
	code3, resp3 := post(t, ts, "/v1/optimize", alt)
	if code3 != http.StatusOK {
		t.Fatalf("code %d: %s", code3, resp3)
	}
	s3 := reg.Snapshot()
	if s3.Counters["dtr_serve_cache_hits_total"] != 2 {
		t.Fatalf("canonically identical request should hit the cache: %v", s3.Counters)
	}
	if !bytes.Equal(resp1, resp3) {
		t.Fatalf("responses differ:\n%s\n%s", resp1, resp3)
	}
}

func TestCoalescing(t *testing.T) {
	svc, reg, ts := newTestService(t, Config{Workers: 1, MaxInflight: 1, Timeout: 30 * time.Second})
	release := grabSlot(t, svc)

	// Fire two identical requests while the admission slot is held: the
	// first becomes the flight leader (blocked in admission), the second
	// joins the same flight.
	body := reqBody(specJSON, `"grid": 512`)
	type outcome struct {
		code int
		body []byte
	}
	results := make([]outcome, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, b := post(t, ts, "/v1/optimize", body)
			results[i] = outcome{code, b}
		}(i)
	}

	// Wait until both callers are attached (the second increments the
	// coalesced counter), then let the computation run.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Counters["dtr_serve_coalesced_total"] < 1 {
		if time.Now().After(deadline) {
			release()
			t.Fatal("second request never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	release()
	wg.Wait()

	for i, r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("request %d: code %d: %s", i, r.code, r.body)
		}
	}
	if !bytes.Equal(results[0].body, results[1].body) {
		t.Fatalf("coalesced responses differ:\n%s\n%s", results[0].body, results[1].body)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["dtr_serve_computes_total"]; got != 1 {
		t.Fatalf("coalesced requests ran %d solver executions, want 1", got)
	}
	if got := snap.Counters["dtr_serve_coalesced_total"]; got != 1 {
		t.Fatalf("coalesced_total = %d, want 1", got)
	}
}

// TestBitIdenticalAcrossWorkers: the service's determinism guarantee —
// the same request answered by services with different worker budgets
// (and no shared cache) yields byte-identical bodies.
func TestBitIdenticalAcrossWorkers(t *testing.T) {
	requests := []struct{ path, body string }{
		{"/v1/optimize", reqBody(specJSON, `"grid": 512`)},
		{"/v1/optimize", reqBody(failSpecJSON, `"grid": 512, "objective": "qos", "deadline": 40`)},
		{"/v1/simulate", reqBody(multiSpecJSON, `"policy": "0>2:2", "reps": 300, "seed": 11, "deadline": 25`)},
		{"/v1/bounds", reqBody(multiSpecJSON, `"grid": 512, "policy": "0>2:2,1>2:1"`)},
		{"/v1/cdf", reqBody(specJSON, `"grid": 512, "policy": "0>1:3", "points": 8, "tmax": 50`)},
	}
	var bodies [][]byte
	for _, workers := range []int{1, 4} {
		_, _, ts := newTestService(t, Config{Workers: workers, CacheSize: -1})
		for i, r := range requests {
			code, b := post(t, ts, r.path, r.body)
			if code != http.StatusOK {
				t.Fatalf("workers=%d %s: code %d: %s", workers, r.path, code, b)
			}
			if workers == 1 {
				bodies = append(bodies, b)
			} else if !bytes.Equal(bodies[i], b) {
				t.Fatalf("workers=1 vs %d differ for %s:\n%s\n%s", workers, r.path, bodies[i], b)
			}
		}
	}
}
