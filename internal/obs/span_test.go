package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// decodeTraces parses the JSONL export buffer.
func decodeTraces(t *testing.T, buf *bytes.Buffer) []TraceRecord {
	t.Helper()
	var out []TraceRecord
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var rec TraceRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		out = append(out, rec)
	}
	return out
}

func TestSpanTreeExport(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(TracerConfig{Writer: &buf})

	root := tr.StartRoot("request", "", "endpoint", "optimize")
	if root == nil {
		t.Fatal("StartRoot returned nil on a live tracer")
	}
	c1 := root.Child("cache_lookup", "hit", false)
	c1.End()
	c2 := root.Child("solve")
	c2.SetAttr("verb", "optimize")
	g := c2.Child("sweep")
	g.End()
	c2.End()
	root.End()

	recs := decodeTraces(t, &buf)
	if len(recs) != 1 {
		t.Fatalf("got %d trace records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.V != TraceSchemaVersion {
		t.Errorf("schema version = %d, want %d", rec.V, TraceSchemaVersion)
	}
	if rec.TraceID != root.TraceID().String() || len(rec.TraceID) != 32 {
		t.Errorf("traceId = %q, want %q", rec.TraceID, root.TraceID())
	}
	if rec.Name != "request" {
		t.Errorf("root name = %q", rec.Name)
	}
	if len(rec.Spans) != 4 {
		t.Fatalf("got %d spans, want 4: %+v", len(rec.Spans), rec.Spans)
	}
	// Depth-first: request, cache_lookup, solve, sweep.
	names := []string{rec.Spans[0].Name, rec.Spans[1].Name, rec.Spans[2].Name, rec.Spans[3].Name}
	want := []string{"request", "cache_lookup", "solve", "sweep"}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("span[%d] = %q, want %q", i, names[i], want[i])
		}
	}
	if rec.Spans[0].Parent != "" {
		t.Errorf("root has parent %q", rec.Spans[0].Parent)
	}
	byID := map[string]SpanRecord{}
	for _, s := range rec.Spans {
		byID[s.ID] = s
	}
	if rec.Spans[3].Parent != rec.Spans[2].ID {
		t.Errorf("sweep parent = %q, want solve %q", rec.Spans[3].Parent, rec.Spans[2].ID)
	}
	if rec.Spans[1].Parent != rec.Spans[0].ID || rec.Spans[2].Parent != rec.Spans[0].ID {
		t.Errorf("children not linked to root")
	}
	if rec.Spans[0].Attrs["endpoint"] != "optimize" {
		t.Errorf("root attrs = %v", rec.Spans[0].Attrs)
	}
	if rec.Spans[2].Attrs["verb"] != "optimize" {
		t.Errorf("solve attrs = %v", rec.Spans[2].Attrs)
	}
	if rec.Spans[1].Attrs["hit"] != "false" {
		t.Errorf("cache attrs = %v", rec.Spans[1].Attrs)
	}
}

func TestSpanNilSafety(t *testing.T) {
	var tr *Tracer
	s := tr.StartRoot("x", "")
	if s != nil {
		t.Fatal("nil tracer returned a live span")
	}
	// All of these must be no-ops, not panics.
	s.SetAttr("k", "v")
	c := s.Child("y")
	c.End()
	s.End()
	if got := s.Traceparent(); got != "" {
		t.Errorf("nil span traceparent = %q", got)
	}
	if s.Logger() == nil {
		t.Error("nil span Logger returned nil")
	}
	if err := tr.Err(); err != nil {
		t.Errorf("nil tracer Err = %v", err)
	}
	if snap := tr.Requests(); len(snap.Recent) != 0 || len(snap.Slowest) != 0 {
		t.Errorf("nil tracer Requests = %+v", snap)
	}
}

func TestParseTraceparent(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tid, sid, ok := ParseTraceparent(valid)
	if !ok {
		t.Fatalf("valid header rejected")
	}
	if tid.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("trace id = %s", tid)
	}
	if sid.String() != "00f067aa0ba902b7" {
		t.Errorf("span id = %s", sid)
	}

	bad := []string{
		"",
		"garbage",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // version
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",  // uppercase
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // zero trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // zero parent
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b-01",   // short parent
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // separator
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", // length
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("malformed header accepted: %q", h)
		}
	}
}

// FuzzParseTraceparent: the traceparent parser never panics; a header
// it accepts carries nonzero IDs and no uppercase letter, renders back
// through FormatTraceparent to itself but for the flags, and stops
// parsing with either ID zeroed or its hex uppercased.
func FuzzParseTraceparent(f *testing.F) {
	for _, h := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-ff",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b-01",
		"", "garbage",
	} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		trace, parent, ok := ParseTraceparent(h)
		if !ok {
			if !trace.IsZero() || !parent.IsZero() {
				t.Fatalf("rejected %q but returned IDs %s, %s", h, trace, parent)
			}
			return
		}
		if trace.IsZero() || parent.IsZero() {
			t.Fatalf("accepted %q with an all-zero ID", h)
		}
		if strings.ToLower(h) != h {
			t.Fatalf("accepted %q, which has uppercase letters", h)
		}
		back := FormatTraceparent(trace, parent)
		if back[:53] != h[:53] {
			t.Fatalf("accepted %q, which renders back as %q", h, back)
		}
		if tr, pa, ok := ParseTraceparent(back); !ok || tr != trace || pa != parent {
			t.Fatalf("%q parses to %s, %s, %v, want %s, %s", back, tr, pa, ok, trace, parent)
		}
		for _, bad := range []string{
			h[:3] + strings.Repeat("0", 32) + h[35:],
			h[:36] + strings.Repeat("0", 16) + h[52:],
		} {
			if _, _, ok := ParseTraceparent(bad); ok {
				t.Fatalf("accepted %q, which has an all-zero ID", bad)
			}
		}
		if up := strings.ToUpper(h); up != h {
			if _, _, ok := ParseTraceparent(up); ok {
				t.Fatalf("accepted %q, which has uppercase hex", up)
			}
		}
	})
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	parent := tr.StartRoot("client", "")
	h := parent.Traceparent()
	if len(h) != 55 {
		t.Fatalf("traceparent %q has length %d, want 55", h, len(h))
	}
	// Ingress on the far side: same trace, parent recorded.
	child := tr.StartRoot("server", h)
	if child.TraceID() != parent.TraceID() {
		t.Errorf("ingress trace id = %s, want %s", child.TraceID(), parent.TraceID())
	}
	if child.parent != parent.SpanID() {
		t.Errorf("ingress parent id = %s, want %s", child.parent, parent.SpanID())
	}
	if child.SpanID() == parent.SpanID() {
		t.Error("child reused the parent span id")
	}

	// Malformed ingress falls back to a fresh trace.
	fresh := tr.StartRoot("server", "00-bogus")
	if fresh.TraceID().IsZero() || fresh.TraceID() == parent.TraceID() {
		t.Errorf("malformed ingress did not mint a fresh id: %s", fresh.TraceID())
	}
	if !fresh.parent.IsZero() {
		t.Errorf("malformed ingress kept a parent id: %s", fresh.parent)
	}
}

func TestSpanChildCap(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(TracerConfig{Writer: &buf})
	root := tr.StartRoot("hot", "")
	for i := 0; i < maxSpanChildren+10; i++ {
		c := root.Child("fft")
		c.End() // nil-safe once the cap is hit
	}
	root.End()
	recs := decodeTraces(t, &buf)
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	if n := len(recs[0].Spans); n != maxSpanChildren+1 {
		t.Errorf("exported %d spans, want %d", n, maxSpanChildren+1)
	}
	if d := recs[0].Spans[0].DroppedChildren; d != 10 {
		t.Errorf("droppedChildren = %d, want 10", d)
	}
}

func TestRequestRing(t *testing.T) {
	tr := NewTracer(TracerConfig{RingRecent: 3, RingSlowest: 2})
	for i := 0; i < 5; i++ {
		rec := &TraceRecord{V: TraceSchemaVersion, Name: fmt.Sprintf("r%d", i), DurUs: int64(i * 100)}
		tr.ring.add(rec)
	}
	snap := tr.Requests()
	if len(snap.Recent) != 3 {
		t.Fatalf("recent has %d entries, want 3", len(snap.Recent))
	}
	// Newest first: r4, r3, r2.
	for i, want := range []string{"r4", "r3", "r2"} {
		if snap.Recent[i].Name != want {
			t.Errorf("recent[%d] = %s, want %s", i, snap.Recent[i].Name, want)
		}
	}
	if len(snap.Slowest) != 2 || snap.Slowest[0].Name != "r4" || snap.Slowest[1].Name != "r3" {
		t.Errorf("slowest = %+v", snap.Slowest)
	}
}

func TestDebugRequestsEndpoint(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	old := DefaultTracer()
	SetTracer(tr)
	defer SetTracer(old)

	root := tr.StartRoot("request", "", "endpoint", "optimize")
	root.Child("solve").End()
	root.End()

	rec := httptest.NewRecorder()
	handleRequests(rec, httptest.NewRequest("GET", "/debug/requests", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var snap RequestsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("bad /debug/requests JSON: %v", err)
	}
	if len(snap.Recent) != 1 || snap.Recent[0].Name != "request" || len(snap.Recent[0].Spans) != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(TracerConfig{Writer: &buf})
	root := tr.StartRoot("parallel", "")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := root.Child("row", "i", i)
			c.SetAttr("done", true)
			c.End()
		}(i)
	}
	wg.Wait()
	root.End()
	recs := decodeTraces(t, &buf)
	if len(recs) != 1 || len(recs[0].Spans) != 33 {
		t.Fatalf("got %d records / %d spans", len(recs), len(recs[0].Spans))
	}
}

func TestTraceIDsUnique(t *testing.T) {
	seen := map[TraceID]bool{}
	for i := 0; i < 10000; i++ {
		id := newTraceID()
		if id.IsZero() {
			t.Fatal("zero trace id generated")
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %s", id)
		}
		seen[id] = true
	}
}
