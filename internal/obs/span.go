package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// Request-scoped tracing: the second observability layer on top of the
// metrics registry. A Tracer hands out Spans — named, timed tree nodes
// carrying string attributes — grouped under a 16-byte trace ID that
// rides W3C traceparent headers across process boundaries (see
// traceparent.go). When a root span ends, its completed tree is exported
// as one JSONL line (schema dtr.trace.v1, see TraceRecord) and pushed
// into the /debug/requests ring buffer (see ring.go).
//
// Like the metric handles, everything is nil-safe: a nil *Tracer returns
// nil *Spans, and every Span method on a nil receiver is a no-op. Span
// and trace IDs come from a private splitmix64 sequence seeded once from
// crypto/rand — tracing never touches math/rand, so instrumented solver
// runs consume exactly the randomness an untraced run would (guarded by
// the bit-identity tests).

// TraceSchemaVersion is the version stamped into every exported
// TraceRecord ("v"); bump it when the record layout changes.
const TraceSchemaVersion = 1

// maxSpanChildren bounds the children recorded under one span so a hot
// loop (e.g. thousands of FFT cache misses) cannot balloon a request's
// span tree; overflow is counted and exported as droppedChildren.
const maxSpanChildren = 128

// TraceID identifies one request-scoped trace (W3C trace-id: 16 bytes,
// 32 lowercase hex digits on the wire).
type TraceID [16]byte

// String returns the 32-digit lowercase hex form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// SpanID identifies one span within a trace (W3C parent-id: 8 bytes,
// 16 lowercase hex digits on the wire).
type SpanID [8]byte

// String returns the 16-digit lowercase hex form.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// idState drives ID generation: a Weyl sequence finalized by splitmix64,
// seeded once from crypto/rand at process start. Cheap (one atomic add),
// collision-free within a process, and independent of every solver RNG.
var idState atomic.Uint64

func init() {
	var seed [8]byte
	if _, err := crand.Read(seed[:]); err == nil {
		idState.Store(binary.LittleEndian.Uint64(seed[:]))
	} else {
		idState.Store(uint64(time.Now().UnixNano()))
	}
}

// nextID returns the next 64-bit ID word.
func nextID() uint64 {
	x := idState.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 1 // the all-zero ID is invalid on the wire
	}
	return x
}

func newTraceID() TraceID {
	var t TraceID
	binary.BigEndian.PutUint64(t[:8], nextID())
	binary.BigEndian.PutUint64(t[8:], nextID())
	return t
}

func newSpanID() SpanID {
	var s SpanID
	binary.BigEndian.PutUint64(s[:], nextID())
	return s
}

// Tracer owns completed-trace delivery: the JSONL export writer and the
// /debug/requests ring. Create with NewTracer, install process-wide with
// SetTracer. All methods are nil-receiver-safe.
type Tracer struct {
	mu       sync.Mutex
	w        io.Writer
	writeErr error
	ring     *requestRing
}

// NewTracer builds a Tracer. w receives one JSON line per completed
// trace (nil = no export); writes are serialized by the tracer, and the
// first write error sticks and suppresses further output (see Err). The
// /debug/requests ring keeps the 32 most recent and the 32 slowest
// traces.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: w, ring: newRequestRing(32, 32)}
}

// defaultTracer is the process-wide tracer; nil means tracing is
// disabled and StartRoot hands out nil (no-op) spans.
var defaultTracer atomic.Pointer[Tracer]

// SetTracer installs the process-wide tracer (nil disables tracing).
func SetTracer(t *Tracer) { defaultTracer.Store(t) }

// DefaultTracer returns the installed tracer, or nil when tracing is
// disabled. Safe to call methods on the nil result.
func DefaultTracer() *Tracer { return defaultTracer.Load() }

// Err returns the sticky JSONL write error, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.writeErr
}

// spanAttr is one exported key/value pair.
type spanAttr struct {
	k, v string
}

// Span is one timed node of a request's trace tree. Create roots with
// Tracer.StartRoot, children with Span.Child, and close every span with
// End — ending the root exports the tree. A Span's child list is guarded
// by a mutex, so concurrent shards (sweep batches, Algorithm-1 rows) may
// attach children to a shared parent. The nil *Span is a valid no-op.
type Span struct {
	tracer  *Tracer
	root    *Span
	traceID TraceID
	id      SpanID
	parent  SpanID
	name    string
	start   time.Time

	mu       sync.Mutex
	attrs    []spanAttr
	children []*Span
	dropped  int
	dur      time.Duration
	ended    bool
}

// StartRoot opens the root span of a new trace. A valid W3C traceparent
// header continues the caller's trace (its trace-id is adopted and its
// parent-id recorded); an empty or malformed header starts a fresh
// trace. Attrs are alternating key/value pairs. Returns nil (a no-op
// span) on the nil tracer.
func (t *Tracer) StartRoot(name, traceparent string, attrs ...any) *Span {
	if t == nil {
		return nil
	}
	s := &Span{
		tracer:  t,
		name:    name,
		id:      newSpanID(),
		start:   time.Now(),
		traceID: newTraceID(),
	}
	if tid, parent, ok := ParseTraceparent(traceparent); ok {
		s.traceID = tid
		s.parent = parent
	}
	s.root = s
	s.setAttrs(attrs)
	return s
}

// Child opens a sub-span. Nil-safe; returns nil when the parent is nil
// or its child quota (maxSpanChildren) is exhausted — the overflow is
// counted and exported as droppedChildren.
func (s *Span) Child(name string, attrs ...any) *Span {
	if s == nil {
		return nil
	}
	c := &Span{
		tracer:  s.tracer,
		root:    s.root,
		traceID: s.traceID,
		parent:  s.id,
		id:      newSpanID(),
		name:    name,
		start:   time.Now(),
	}
	c.setAttrs(attrs)
	s.mu.Lock()
	if len(s.children) >= maxSpanChildren {
		s.dropped++
		s.mu.Unlock()
		return nil
	}
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// SetAttr attaches (or appends) one exported attribute.
func (s *Span) SetAttr(key string, val any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, spanAttr{key, fmt.Sprint(val)})
	s.mu.Unlock()
}

// setAttrs ingests alternating key/value pairs (no lock: construction).
func (s *Span) setAttrs(attrs []any) {
	for i := 0; i+1 < len(attrs); i += 2 {
		s.attrs = append(s.attrs, spanAttr{fmt.Sprint(attrs[i]), fmt.Sprint(attrs[i+1])})
	}
}

// End closes the span (idempotent). Ending a root span exports the
// completed tree: one JSONL line on the tracer's writer and an entry in
// the /debug/requests ring.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	s.mu.Unlock()
	if s.root == s {
		s.tracer.export(s)
	}
}

// TraceID returns the span's trace ID (zero on the nil span).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.traceID
}

// SpanID returns the span's own ID (zero on the nil span).
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// Logger returns the run logger bound to this span's trace: every record
// carries trace_id (and span_id), so logs and exported span trees can be
// joined. On the nil span it returns the plain run logger.
func (s *Span) Logger() *slog.Logger {
	if s == nil {
		return Logger()
	}
	return Logger().With("trace_id", s.traceID.String(), "span_id", s.id.String())
}

// ctxKey carries the active span through a context.Context.
type ctxKey struct{}

// ContextWithSpan returns a context carrying s (for nil s, ctx itself).
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// SpanRecord is one span of an exported trace tree.
type SpanRecord struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	// StartUs is the span's start offset from the trace start and DurUs
	// its duration, both in microseconds.
	StartUs int64             `json:"startUs"`
	DurUs   int64             `json:"durUs"`
	Attrs   map[string]string `json:"attrs,omitempty"`
	// DroppedChildren counts sub-spans discarded past maxSpanChildren.
	DroppedChildren int `json:"droppedChildren,omitempty"`
}

// TraceRecord is one completed trace tree: the JSONL export line and the
// /debug/requests entry. V is TraceSchemaVersion; Spans lists the tree
// depth-first with the root span first, each span's parent linked by ID.
type TraceRecord struct {
	V       int          `json:"v"`
	TraceID string       `json:"traceId"`
	Name    string       `json:"name"`
	Start   time.Time    `json:"start"`
	DurUs   int64        `json:"durUs"`
	Spans   []SpanRecord `json:"spans"`
}

// record flattens the finished tree rooted at s.
func (s *Span) record() *TraceRecord {
	rec := &TraceRecord{
		V:       TraceSchemaVersion,
		TraceID: s.traceID.String(),
		Name:    s.name,
		Start:   s.start,
		DurUs:   s.dur.Microseconds(),
	}
	var walk func(sp *Span)
	walk = func(sp *Span) {
		sp.mu.Lock()
		sr := SpanRecord{
			ID:              sp.id.String(),
			Name:            sp.name,
			StartUs:         sp.start.Sub(s.start).Microseconds(),
			DurUs:           sp.dur.Microseconds(),
			DroppedChildren: sp.dropped,
		}
		if !sp.parent.IsZero() {
			sr.Parent = sp.parent.String()
		}
		if len(sp.attrs) > 0 {
			sr.Attrs = make(map[string]string, len(sp.attrs))
			for _, a := range sp.attrs {
				sr.Attrs[a.k] = a.v
			}
		}
		children := sp.children
		sp.mu.Unlock()
		rec.Spans = append(rec.Spans, sr)
		for _, c := range children {
			walk(c)
		}
	}
	walk(s)
	return rec
}

// export delivers a completed root span: JSONL line + ring entry.
func (t *Tracer) export(root *Span) {
	if t == nil {
		return
	}
	rec := root.record()
	tracesExported.Inc()
	t.ring.add(rec)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.w == nil || t.writeErr != nil {
		return
	}
	b, err := json.Marshal(rec)
	if err == nil {
		b = append(b, '\n')
		_, err = t.w.Write(b)
	}
	if err != nil {
		t.writeErr = fmt.Errorf("obs: trace export: %w", err)
	}
}

// tracesExported counts completed (exported) trace trees.
var tracesExported = NewCounter("dtr_trace_exported_total")
