package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dtr/dist"
	"dtr/internal/obs"
	"dtr/internal/rngutil"
	"dtr/internal/trace"
)

// fitEvents synthesizes a trace from known laws: exponential services
// (means 4 and 2), exponential per-task transfers (mean 1), with a
// censored slice in each channel.
func fitEvents(n int) []trace.Event {
	r := rngutil.Stream(42, 0)
	evs := []trace.Event{{Kind: trace.KindMeta, Servers: 2, Source: "test"}}
	serviceMean := []float64{4, 2}
	// Right-censor at an independent exponential horizon (capture end),
	// recording min(value, horizon) — censoring a draw at a bound
	// derived from the draw itself would be informative and bias the
	// fits.
	censor := func(x, horizonMean float64) (float64, bool) {
		if c := dist.NewExponential(horizonMean).Sample(r); c < x {
			return c, true
		}
		return x, false
	}
	for i := 0; i < n; i++ {
		srv := i % 2
		x, xc := censor(dist.NewExponential(serviceMean[srv]).Sample(r), 4*serviceMean[srv])
		evs = append(evs, trace.Event{Kind: trace.KindService, Server: srv, Value: x, Censored: xc})
		// Group of 3, per-task mean 1.
		z, zc := censor(dist.NewExponential(3).Sample(r), 12)
		evs = append(evs, trace.Event{Kind: trace.KindTransfer, Src: srv, Dst: 1 - srv, Tasks: 3, Value: z, Censored: zc})
	}
	return evs
}

func TestFitEndpoint(t *testing.T) {
	_, _, ts := newTestService(t, Config{})
	body, err := json.Marshal(FitRequest{
		Events:   fitEvents(600),
		Queues:   []int{8, 4},
		Families: []string{"exponential", "gamma"},
	})
	if err != nil {
		t.Fatal(err)
	}
	code, resp := post(t, ts, "/v1/fit", string(body))
	if code != http.StatusOK {
		t.Fatalf("POST /v1/fit = %d: %s", code, resp)
	}
	var fr FitResponse
	if err := json.Unmarshal(resp, &fr); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if fr.Spec == nil || fr.Report == nil {
		t.Fatal("response missing spec or report")
	}
	if len(fr.Spec.Servers) != 2 {
		t.Fatalf("fitted spec has %d servers, want 2", len(fr.Spec.Servers))
	}
	if fr.Spec.Servers[0].Queue != 8 || fr.Spec.Servers[1].Queue != 4 {
		t.Errorf("queues not recorded: %+v", fr.Spec.Servers)
	}
	// The fitted spec must itself build (the service validated it).
	if _, _, err := fr.Spec.Build(); err != nil {
		t.Fatalf("fitted spec does not build: %v", err)
	}
	// Sanity on recovered scales.
	d0, err := fr.Spec.Servers[0].Service.Dist()
	if err != nil {
		t.Fatal(err)
	}
	if m := d0.Mean(); math.Abs(m-4) > 0.8 {
		t.Errorf("service[0] mean = %.3f, want ~4", m)
	}
	if m := fr.Spec.Transfer.PerTaskMean; math.Abs(m-1) > 0.25 {
		t.Errorf("transfer perTaskMean = %.3f, want ~1", m)
	}
	if len(fr.Report.Fits) < 3 {
		t.Errorf("report has %d channel fits, want >= 3: %+v", len(fr.Report.Fits), fr.Report)
	}
}

func TestFitEndpointRejects(t *testing.T) {
	_, _, ts := newTestService(t, Config{})
	evs, _ := json.Marshal(fitEvents(100))
	cases := []struct {
		name, body string
		want       int
	}{
		{"no events", `{"queues": [1, 2]}`, http.StatusBadRequest},
		{"no queues", `{"events": ` + string(evs) + `}`, http.StatusBadRequest},
		{"queue count mismatch", `{"events": ` + string(evs) + `, "queues": [1]}`, http.StatusBadRequest},
		{"unknown family", `{"events": ` + string(evs) + `, "queues": [1, 2], "families": ["zipf"]}`, http.StatusBadRequest},
		{"negative minObs", `{"events": ` + string(evs) + `, "queues": [1, 2], "minObs": -1}`, http.StatusBadRequest},
		{"get not allowed", "", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var code int
			if tc.name == "get not allowed" {
				resp, err := http.Get(ts.URL + "/v1/fit")
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				code = resp.StatusCode
			} else {
				code, _ = post(t, ts, "/v1/fit", tc.body)
			}
			if code != tc.want {
				t.Errorf("status = %d, want %d", code, tc.want)
			}
		})
	}
}

// TestReadyzDrains locks the readiness contract: /readyz answers 200
// while serving, flips to 503 the moment graceful shutdown begins (an
// in-flight request is still holding Shutdown open), and the held
// request completes. /healthz is pure liveness: it stays 200 throughout
// the drain.
func TestReadyzDrains(t *testing.T) {
	svc := New(Config{Registry: obs.NewRegistry()})
	mux := http.NewServeMux()
	svc.Register(mux)
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	mux.HandleFunc("/block", func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	})
	ts := httptest.NewUnstartedServer(mux)
	ts.Config.RegisterOnShutdown(svc.StartDrain)
	ts.Start()
	defer ts.Close()

	probe := func(path string) int {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}
	readyz := func() int { return probe("/readyz") }
	if code := readyz(); code != http.StatusOK {
		t.Fatalf("readyz before shutdown = %d, want 200", code)
	}

	// Hold one request in flight so Shutdown cannot finish.
	blockDone := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/block")
		if err == nil {
			resp.Body.Close()
		}
		blockDone <- err
	}()
	<-entered

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- ts.Config.Shutdown(context.Background()) }()

	// Mid-Shutdown — the blocked request guarantees we are — the probe
	// must flip to 503. RegisterOnShutdown callbacks run asynchronously,
	// so poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for readyz() != http.StatusServiceUnavailable {
		if time.Now().After(deadline) {
			t.Fatal("readyz did not flip to 503 during Shutdown")
		}
		time.Sleep(time.Millisecond)
	}
	// Liveness never drains: the process is still up and serving.
	if code := probe("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz during drain = %d, want 200 (liveness must not drain)", code)
	}
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a request was still in flight", err)
	default:
	}

	close(release)
	if err := <-blockDone; err != nil {
		t.Fatalf("in-flight request failed: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// failingWriter is a ResponseWriter whose body writes fail, as when the
// client has gone.
type failingWriter struct{ http.ResponseWriter }

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("client gone") }

// TestWriteJSONCountsEncodeErrors: a body that cannot be written after
// the 200 is sent moves dtr_serve_encode_errors_total.
func TestWriteJSONCountsEncodeErrors(t *testing.T) {
	reg := obs.NewRegistry()
	svc := New(Config{Registry: reg})
	if code := svc.writeJSON(failingWriter{httptest.NewRecorder()}, FitResponse{}); code != http.StatusOK {
		t.Fatalf("writeJSON returned %d, want 200", code)
	}
	if n := reg.Counter("dtr_serve_encode_errors_total").Value(); n != 1 {
		t.Fatalf("a failed body write counted %d encode errors, want 1", n)
	}
}
