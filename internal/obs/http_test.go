package obs

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestServe starts a live endpoint on a free port and exercises /metrics,
// /metrics.json and /debug/vars end to end.
func TestServe(t *testing.T) {
	r := NewRegistry()
	r.Counter("dtr_http_test_total").Add(7)
	r.Histogram("dtr_http_test_seconds", []float64{1}).Observe(0.5)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serveOn(ln, r, false)
	defer srv.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	text, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("/metrics content type = %q", ctype)
	}
	for _, line := range []string{
		"# TYPE dtr_http_test_total counter",
		"dtr_http_test_total 7",
		`dtr_http_test_seconds_bucket{le="1"} 1`,
	} {
		if !strings.Contains(text, line) {
			t.Fatalf("/metrics missing %q:\n%s", line, text)
		}
	}

	body, ctype := get("/metrics.json")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("/metrics.json content type = %q", ctype)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics.json is not valid JSON: %v", err)
	}
	if snap.Counters["dtr_http_test_total"] != 7 {
		t.Fatalf("snapshot counters = %v", snap.Counters)
	}
	if h := snap.Histograms["dtr_http_test_seconds"]; h.Count != 1 {
		t.Fatalf("snapshot histogram = %+v", h)
	}

	vars, _ := get("/debug/vars")
	var published map[string]json.RawMessage
	if err := json.Unmarshal([]byte(vars), &published); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}
	if published["cmdline"] == nil || published["dtr_metrics"] == nil {
		t.Fatalf("/debug/vars lacks the expvar defaults or the dtr_metrics snapshot:\n%s", vars)
	}
	// dtr_metrics is the served registry's snapshot, not the default's.
	var served Snapshot
	if err := json.Unmarshal(published["dtr_metrics"], &served); err != nil {
		t.Fatalf("/debug/vars' dtr_metrics is not a snapshot: %v", err)
	}
	if served.Counters["dtr_http_test_total"] != 7 {
		t.Fatalf("/debug/vars' dtr_metrics counters = %v, want dtr_http_test_total 7", served.Counters)
	}
}

// TestServeBadAddr checks that an unbindable -metrics-addr surfaces as a
// usage error (the CLIs turn this into exit 2) and starts nothing.
func TestServeBadAddr(t *testing.T) {
	c := &CLI{MetricsAddr: "256.0.0.1:99999", Err: io.Discard}
	if err := c.Start(); !errors.Is(err, ErrUsage) {
		t.Fatalf("Start on a bad listen address: %v, want a usage error", err)
	}
	if Default() != nil {
		t.Fatal("a failed Start installed a registry")
	}
}

// TestNewHandler exercises the constructible exposition handler that
// daemons mount on their own mux (no live listener involved).
func TestNewHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("dtr_handler_test_total").Add(3)

	h := NewHandler(r, true)
	get := func(path string) (int, string) {
		t.Helper()
		req := httptest.NewRequest("GET", path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}

	code, body := get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "dtr_handler_test_total 3") {
		t.Fatalf("/metrics: code %d body:\n%s", code, body)
	}
	code, body = get("/metrics.json")
	if code != http.StatusOK {
		t.Fatalf("/metrics.json: code %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics.json invalid: %v", err)
	}
	if snap.Counters["dtr_handler_test_total"] != 3 {
		t.Fatalf("snapshot = %v", snap.Counters)
	}
	if code, _ = get("/debug/vars"); code != http.StatusOK {
		t.Fatalf("/debug/vars: code %d", code)
	}
	if code, _ = get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: code %d", code)
	}
}
