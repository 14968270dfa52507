package serve

import (
	"encoding/json"
	"net/http"
	"os"
	"testing"
)

// replSpecJSON is specJSON with a declared min-of-3 law on the second
// server: plain requests are answered under the declared factors.
const replSpecJSON = `{
  "servers": [
    {"queue": 8, "service": {"type": "exponential", "mean": 4}},
    {"queue": 4, "service": {"type": "exponential", "mean": 2}, "replicate": 3}
  ],
  "transfer": {"type": "exponential", "perTaskMean": 1}
}`

// goldenCases is one request per verb and per branch a verb has
// (objective, replication, probe, multi-server, undefined metrics).
var goldenCases = []struct {
	name, verb, spec, extra string
}{
	{"optimize", "optimize", specJSON, `"grid": 512`},
	{"optimize-qos", "optimize", failSpecJSON, `"grid": 512, "objective": "qos", "deadline": 30`},
	{"optimize-reliability", "optimize", failSpecJSON, `"grid": 512, "objective": "reliability"`},
	{"optimize-declared", "optimize", replSpecJSON, `"grid": 512`},
	{"optimize-multi", "optimize", multiSpecJSON, ""},
	{"optimize-repl", "optimize", specJSON, `"grid": 512, "replication": {"maxFactor": 2, "budget": 1}`},
	{"optimize-repl-multi", "optimize", multiSpecJSON, `"replication": {"maxFactor": 2}`},
	{"metrics", "metrics", specJSON, `"grid": 512, "policy": "0>1:2", "deadline": 30`},
	{"metrics-failing", "metrics", failSpecJSON, `"grid": 512, "policy": "0>1:2"`},
	{"simulate", "simulate", specJSON, `"policy": "0>1:2", "reps": 500, "deadline": 30`},
	{"simulate-multi", "simulate", multiSpecJSON, `"policy": "0>2:2,1>2:1", "reps": 300, "seed": 7`},
	{"bounds", "bounds", multiSpecJSON, `"grid": 512, "policy": "0>2:2,1>2:1", "deadline": 30`},
	{"cdf", "cdf", specJSON, `"grid": 512, "policy": "0>1:2", "points": 5`},
	{"cdf-tmax", "cdf", failSpecJSON, `"grid": 512, "policy": "0>1:2", "points": 4, "tmax": 60`},
	{"explain", "explain", specJSON, `"grid": 512`},
	{"explain-probe", "explain", failSpecJSON, `"grid": 512, "objective": "qos", "deadline": 30, "probe": true`},
	{"explain-repl", "explain", specJSON, `"grid": 512, "replication": {"maxFactor": 2}`},
	{"explain-multi", "explain", multiSpecJSON, ""},
}

// goldenAnswer is what testdata/verbs.golden.json pins per case: the
// request's cache fingerprint and the response body, byte for byte. The
// file was captured from the commit before the verb table existed (as was
// parent.cachesnap.json, that service's cache after answering every
// case), so it pins the refactor, not just this build against itself.
type goldenAnswer struct {
	Fingerprint string `json:"fingerprint"`
	Body        string `json:"body"`
}

func loadGoldens(t *testing.T) map[string]goldenAnswer {
	t.Helper()
	raw, err := os.ReadFile("testdata/verbs.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenAnswer
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(goldenCases) {
		t.Fatalf("%d goldens for %d cases", len(want), len(goldenCases))
	}
	return want
}

// TestVerbGoldens: for every case the fingerprint, the endpoint's body
// and Exec's answer are the captured bytes — one engine, two doors.
func TestVerbGoldens(t *testing.T) {
	want := loadGoldens(t)
	_, _, ts := newTestService(t, Config{Workers: 2})
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			body := reqBody(c.spec, c.extra)
			var req Request
			if err := json.Unmarshal([]byte(body), &req); err != nil {
				t.Fatal(err)
			}
			pr, err := parseRequest(c.verb, &req)
			if err != nil {
				t.Fatal(err)
			}
			if pr.key != want[c.name].Fingerprint {
				t.Errorf("fingerprint %s, captured %s", pr.key, want[c.name].Fingerprint)
			}
			code, got := post(t, ts, "/v1/"+c.verb, body)
			if code != http.StatusOK || string(got) != want[c.name].Body {
				t.Errorf("POST answered %d:\n%s\ncaptured:\n%s", code, got, want[c.name].Body)
			}
			resp, err := Exec(c.verb, &req, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := json.Marshal(resp)
			if err != nil {
				t.Fatal(err)
			}
			if string(direct)+"\n" != string(got) {
				t.Errorf("Exec answered\n%s\nPOST answered\n%s", direct, got)
			}
		})
	}
}

// TestParentSnapshotReloads: a dtr.cachesnap.v1 file written before the
// refactor reloads with every entry accepted, and then answers every
// case from the cache.
func TestParentSnapshotReloads(t *testing.T) {
	want := loadGoldens(t)
	svc, reg, ts := newTestService(t, Config{Workers: 2})
	loaded, err := svc.LoadCacheSnapshotFile("testdata/parent.cachesnap.json")
	if err != nil {
		t.Fatal(err)
	}
	if loaded != len(goldenCases) {
		t.Fatalf("%d of %d snapshot entries accepted", loaded, len(goldenCases))
	}
	// A warm cache answers with the bytes the writing build computed: the
	// captured bodies, except for bounds, whose means the parent of the
	// n-server solver merge summed by another kernel (see TestBoundsPinned
	// in internal/direct) — the snapshot holds that build's last digits —
	// and for the two-server explains' fold audit: the writing build
	// folded every sweep point, a screened sweep folds only its
	// confirmations, so the two bodies agree but for solver.folds and the
	// fold maxima.
	raw, err := os.ReadFile("testdata/parent.cachesnap.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Entries []struct {
			Key  string
			Body []byte
		}
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	cached := make(map[string]string)
	for _, e := range snap.Entries {
		cached[e.Key] = string(e.Body)
	}
	for _, c := range goldenCases {
		body := cached[want[c.name].Fingerprint]
		if c.name != "bounds" && foldAuditMasked(t, c.name, body) != foldAuditMasked(t, c.name, want[c.name].Body) {
			t.Errorf("%s: the snapshot holds\n%s\ncaptured:\n%s", c.name, body, want[c.name].Body)
		}
		code, got := post(t, ts, "/v1/"+c.verb, reqBody(c.spec, c.extra))
		if code != http.StatusOK || string(got) != body {
			t.Errorf("%s: answered %d:\n%s", c.name, code, got)
		}
	}
	if n := reg.Snapshot().Counters["dtr_serve_computes_total"]; n != 0 {
		t.Errorf("%d computations after a warm reload, want 0", n)
	}
}

// foldAuditMasked is a two-server explain body without the solver fields
// that describe the folds the answer ran (see TestParentSnapshotReloads),
// and any other case's body as it is.
func foldAuditMasked(t *testing.T, name, body string) string {
	t.Helper()
	switch name {
	case "explain", "explain-probe", "explain-repl":
	default:
		return body
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	solver, _ := doc["solver"].(map[string]any)
	for _, k := range []string{"folds", "massResidualMax", "negMassMax", "tailMassMax"} {
		delete(solver, k)
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestExecIsValidatedNotCapped: the two doors differ in the resource caps
// and in nothing else — a lattice below the endpoint's floor is the
// caller's business in-process and a 400 over HTTP, while a request that
// means nothing is rejected at both with one message.
func TestExecIsValidatedNotCapped(t *testing.T) {
	_, _, ts := newTestService(t, Config{Workers: 1})
	small := &Request{Spec: json.RawMessage(specJSON), Grid: minGrid / 2, Policy: "0>1:2"}
	if _, err := Exec("cdf", small, 1, nil); err != nil {
		t.Errorf("Exec under the endpoint's grid floor: %v", err)
	}
	if code, body := post(t, ts, "/v1/cdf", reqBody(specJSON, `"grid": 32, "policy": "0>1:2"`)); code != http.StatusBadRequest {
		t.Errorf("POST under the grid floor answered %d: %s", code, body)
	}

	_, err := Exec("cdf", &Request{Spec: json.RawMessage(specJSON), Points: -3}, 1, nil)
	code, body := post(t, ts, "/v1/cdf", reqBody(specJSON, `"points": -3`))
	var e ErrorResponse
	if jerr := json.Unmarshal(body, &e); jerr != nil || code != http.StatusBadRequest {
		t.Fatalf("POST points -3 answered %d: %s", code, body)
	}
	if err == nil || err.Error() != e.Error {
		t.Errorf("Exec rejected with %v, the endpoint with %q", err, e.Error)
	}
	if _, err := Exec("plan", small, 1, nil); err == nil {
		t.Error("Exec accepted a verb the table does not hold")
	}
}

// TestHugeDeadlineAnswers: any finite non-negative deadline is valid, and
// one far past the lattice horizon reads the curve's last point. The
// verbs that read a QoS answer 1e300 instead of indexing the lattice
// with an overflowed position; metrics answers the limit, the reliability.
func TestHugeDeadlineAnswers(t *testing.T) {
	for _, c := range []struct{ verb, extra string }{
		{"metrics", `"policy": "0>1:2"`},
		{"bounds", `"policy": "0>1:2"`},
		{"optimize", `"objective": "qos"`},
	} {
		var req Request
		if err := json.Unmarshal([]byte(reqBody(specJSON, `"grid": 512, "deadline": 1e300, `+c.extra)), &req); err != nil {
			t.Fatal(err)
		}
		resp, err := Exec(c.verb, &req, 1, nil)
		if err != nil {
			t.Fatalf("%s with deadline 1e300: %v", c.verb, err)
		}
		if m, ok := resp.(*MetricsResponse); ok && !(m.QoS > 0.99 && m.QoS <= m.Reliability) {
			t.Errorf("metrics at deadline 1e300: QoS %v, reliability %v", m.QoS, m.Reliability)
		}
	}
}
