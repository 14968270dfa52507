package adapt

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"dtr/internal/obs"
	"dtr/internal/serve"
	"dtr/modelspec"
)

// TestHTTPPlannerTraceparentEgress checks the adapt → dtrserved hop:
// when the replan context carries a span, the outgoing POST carries its
// W3C traceparent — same trace id, a span id from this process — and
// nothing is sent without a span.
func TestHTTPPlannerTraceparentEgress(t *testing.T) {
	var headers []string
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		headers = append(headers, r.Header.Get(obs.TraceparentHeader))
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(serve.OptimizeResponse{
			Objective: "mean", Policy: "0>1:1", Matrix: [][]int{{0, 1}, {0, 0}},
		})
	}))
	defer stub.Close()

	tracer := obs.NewTracer(&bytes.Buffer{})
	root := tracer.StartRoot("replan", "")
	ctx := obs.ContextWithSpan(context.Background(), root)

	p := &HTTP{BaseURL: stub.URL}
	spec, err := modelspec.Decode([]byte(`{
	  "servers": [
	    {"queue": 8, "service": {"type": "exponential", "mean": 4}},
	    {"queue": 4, "service": {"type": "exponential", "mean": 2}}
	  ],
	  "transfer": {"type": "exponential", "perTaskMean": 1}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Plan(ctx, spec); err != nil {
		t.Fatal(err)
	}
	// No span in the context → no header.
	if _, _, err := p.Plan(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	root.End()

	if len(headers) != 2 {
		t.Fatalf("stub saw %d requests, want 2", len(headers))
	}
	tid, sid, ok := obs.ParseTraceparent(headers[0])
	if !ok {
		t.Fatalf("traced request sent invalid traceparent %q", headers[0])
	}
	if tid != root.TraceID() {
		t.Errorf("egress trace id = %s, want the replan root's %s", tid, root.TraceID())
	}
	if sid == root.SpanID() {
		t.Error("egress parent span id reused the root id; want the http_post child's")
	}
	if headers[1] != "" {
		t.Errorf("untraced request sent traceparent %q", headers[1])
	}
}
