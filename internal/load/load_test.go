package load

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"dtr/internal/serve"
)

// reliableSpec is a small two-server reliable system: cheap to solve, so
// the test run finishes quickly even at low grid sizes.
const reliableSpec = `{
  "servers": [
    {"queue": 6, "service": {"type": "exponential", "mean": 2.0}},
    {"queue": 3, "service": {"type": "exponential", "mean": 1.0}}
  ],
  "transfer": {"type": "exponential", "perTaskMean": 0.5}
}`

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	svc := serve.New(serve.Config{Workers: 2})
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return srv
}

func TestRunTwoLevelsTwoVerbs(t *testing.T) {
	srv := testServer(t)
	rep, err := Run(context.Background(), Config{
		BaseURL:  srv.URL,
		Spec:     json.RawMessage(reliableSpec),
		Verbs:    []string{"optimize", "metrics"},
		RPS:      []float64{20, 40},
		Duration: 300 * time.Millisecond,
		Grid:     256,
		SLO:      SLO{MaxErrorRate: 0.001},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != ReportSchema {
		t.Errorf("schema = %q, want %q", rep.Schema, ReportSchema)
	}
	if len(rep.Levels) != 2 {
		t.Fatalf("got %d levels, want 2", len(rep.Levels))
	}
	for _, lvl := range rep.Levels {
		if lvl.Offered == 0 || lvl.Completed != lvl.Offered {
			t.Errorf("level %g: offered=%d completed=%d", lvl.RPS, lvl.Offered, lvl.Completed)
		}
		if len(lvl.Verbs) != 2 {
			t.Fatalf("level %g: got %d verb cells, want 2", lvl.RPS, len(lvl.Verbs))
		}
		for _, vs := range lvl.Verbs {
			if vs.Requests == 0 {
				t.Errorf("level %g verb %s: no requests", lvl.RPS, vs.Verb)
			}
			if vs.Codes["200"] != vs.Requests {
				t.Errorf("level %g verb %s: codes = %v, want all 200", lvl.RPS, vs.Verb, vs.Codes)
			}
			if vs.P50Ms <= 0 || vs.P99Ms < vs.P50Ms || vs.P999Ms < vs.P99Ms {
				t.Errorf("level %g verb %s: quantiles p50=%g p99=%g p999=%g", lvl.RPS, vs.Verb, vs.P50Ms, vs.P99Ms, vs.P999Ms)
			}
			if vs.ErrorRate != 0 || vs.RejectRate != 0 {
				t.Errorf("level %g verb %s: errorRate=%g rejectRate=%g", lvl.RPS, vs.Verb, vs.ErrorRate, vs.RejectRate)
			}
			if !vs.SLOPass {
				t.Errorf("level %g verb %s: SLO failed", lvl.RPS, vs.Verb)
			}
		}
	}
	if !rep.SLOPass {
		t.Error("report SLO failed")
	}
	// The report must round-trip as JSON (it becomes BENCH_serve.json).
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
}

func TestRunSLOFailure(t *testing.T) {
	// A handler that always answers 500 must trip MaxErrorRate.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}))
	defer srv.Close()
	rep, err := Run(context.Background(), Config{
		BaseURL:  srv.URL,
		Spec:     json.RawMessage(reliableSpec),
		Verbs:    []string{"optimize"},
		RPS:      []float64{50},
		Duration: 100 * time.Millisecond,
		SLO:      SLO{MaxErrorRate: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SLOPass {
		t.Error("SLO passed against an all-500 server")
	}
	vs := rep.Levels[0].Verbs[0]
	if vs.ErrorRate != 1 {
		t.Errorf("errorRate = %g, want 1", vs.ErrorRate)
	}
}

func TestRunVariantsSpreadCacheKeys(t *testing.T) {
	// With variants > 1 the lattice verbs must send distinct grids.
	grids := make(chan int, 64)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Grid int `json:"grid"`
		}
		body, _ := json.Marshal(map[string]any{})
		_ = json.NewDecoder(r.Body).Decode(&req)
		select {
		case grids <- req.Grid:
		default:
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	}))
	defer srv.Close()
	_, err := Run(context.Background(), Config{
		BaseURL:  srv.URL,
		Spec:     json.RawMessage(reliableSpec),
		Verbs:    []string{"metrics"},
		RPS:      []float64{50},
		Duration: 100 * time.Millisecond,
		Grid:     256,
		Variants: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	close(grids)
	seen := map[int]bool{}
	for g := range grids {
		seen[g] = true
	}
	if len(seen) < 2 {
		t.Errorf("variants did not spread grids: saw %v", seen)
	}
}

// TestRequestBodiesAreServeRequests: the body dtrload sends is a
// serve.Request — no field the service would not know — and every verb
// answers it, on the failure-prone testbed spec, with the fields the
// verb does not read (a seed for metrics, a policy for optimize) set.
func TestRequestBodiesAreServeRequests(t *testing.T) {
	spec, err := os.ReadFile("../../examples/specs/testbed.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg := &Config{
		Spec: spec, Grid: 128, Policy: "0>1:10", Objective: "reliability",
		Deadline: 150, Reps: 200, Points: 5,
	}
	for _, verb := range []string{"optimize", "metrics", "simulate", "bounds", "cdf", "explain"} {
		for variant := 0; variant < 2; variant++ {
			body, err := json.Marshal(request(cfg, variant))
			if err != nil {
				t.Fatal(err)
			}
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			var req serve.Request
			if err := dec.Decode(&req); err != nil {
				t.Fatalf("%s: body %s does not decode as a serve.Request: %v", verb, body, err)
			}
			if req.Grid != 128+64*variant || req.Seed != uint64(1+variant) {
				t.Errorf("%s variant %d: grid %d, seed %d", verb, variant, req.Grid, req.Seed)
			}
			if ans, err := serve.Exec(verb, &req, 1, nil); err != nil || ans == nil {
				t.Errorf("%s variant %d: %v, %v", verb, variant, ans, err)
			}
		}
	}
	if got := request(&Config{}, 3).Grid; got != serve.DefaultGrid+192 {
		t.Errorf("default grid, variant 3: %d", got)
	}
}

func TestRunValidation(t *testing.T) {
	bad := []Config{
		{},
		{BaseURL: "http://x"},
		{BaseURL: "http://x", Spec: json.RawMessage("{}")},
		{BaseURL: "http://x", Spec: json.RawMessage("{}"), Verbs: []string{"optimize"}},
		{BaseURL: "http://x", Spec: json.RawMessage("{}"), Verbs: []string{"optimize"}, RPS: []float64{-1}},
	}
	for i, cfg := range bad {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("config %d: expected an error", i)
		}
	}
}
