package ingest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dtr/internal/obs"
	"dtr/internal/trace"
)

// Ingest observability: wire volume in (lines, datagrams, decoded
// events), what was refused (parse errors, channel-cap drops), what is
// live (tenants, channels, staleness from the sweep), and how long the
// window-merge flush behind each snapshot takes.
var (
	ingestLines       = obs.NewCounter("dtr_ingest_lines_total")
	ingestDatagrams   = obs.NewCounter("dtr_ingest_datagrams_total")
	ingestEvents      = obs.NewCounter("dtr_ingest_events_total")
	ingestParseErrors = obs.NewCounter("dtr_ingest_parse_errors_total")
	ingestDrops       = obs.NewCounter("dtr_ingest_drops_total")
	ingestSnapshots   = obs.NewCounter("dtr_ingest_snapshots_total")
	ingestEvictions   = obs.NewCounter("dtr_ingest_evictions_total")

	ingestActiveTenants  = obs.NewGauge("dtr_ingest_active_tenants")
	ingestActiveChannels = obs.NewGauge("dtr_ingest_active_channels")
	ingestStaleChannels  = obs.NewGauge("dtr_ingest_stale_channels")

	ingestFlushSeconds = obs.NewTimer("dtr_ingest_flush_seconds")
)

// Server is the daemon's wire surface over one Aggregator: the HTTP
// endpoints (POST /v1/ingest, GET /v1/snapshot, GET /healthz) and the
// UDP datagram loop, both feeding their lines through one batch path.
type Server struct {
	agg      *Aggregator
	tracer   *obs.Tracer
	maxBody  int64
	draining atomic.Bool
}

// NewServer wraps agg for the wire. tracer may be nil (tracing off);
// maxBody caps HTTP ingest bodies (0 = 4 MiB).
func NewServer(agg *Aggregator, tracer *obs.Tracer, maxBody int64) *Server {
	if maxBody <= 0 {
		maxBody = 4 << 20
	}
	return &Server{agg: agg, tracer: tracer, maxBody: maxBody}
}

// Register mounts the ingest endpoints on mux.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("/v1/ingest", s.handleIngest)
	mux.HandleFunc("/v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"status":"draining"}`)
			return
		}
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
}

// StartDrain flips /healthz to 503 so load balancers stop routing to a
// terminating instance; in-flight requests finish normally, and the
// aggregated statistics stay snapshottable until the process exits.
func (s *Server) StartDrain() { s.draining.Store(true) }

// runCap bounds a run: at about 100 ns a folded event, 512 events hold
// the aggregator's lock for about 50 µs.
const runCap = 512

// run is a batch's pending stretch of consecutive events for one tenant,
// as of the clock reading its first event took. It copies the tenant
// name into its own buffer: it keeps no bytes of the lines parsed.
type run struct {
	tenant []byte
	events []trace.Event
	now    time.Time
}

var runs = sync.Pool{New: func() any { return &run{tenant: make([]byte, 0, 64), events: make([]trace.Event, 0, runCap)} }}

// batch is the one path from wire bytes to the aggregator, for an HTTP
// request and a UDP datagram alike. It parses and checks each line
// outside the aggregator's lock — sniffing the format: JSONL trace.v1
// events start with '{', everything else is the line protocol — and
// gathers consecutive events of one tenant into a run, which it folds
// under one lock when the tenant changes, the run is full, a line is
// refused or the batch ends. Lines land in line order, and the pending
// run is folded before a refusal is tallied, so the tally's first
// refusal is the first in line order.
type batch struct {
	agg *Aggregator
	// jsonl names the tenant JSONL events land in (?tenant=); an empty
	// name refuses them, for they carry no tenant of their own.
	jsonl []byte
	run   *run
	tally
}

func (s *Server) newBatch(jsonl []byte) batch {
	return batch{agg: s.agg, jsonl: jsonl, run: runs.Get().(*run)}
}

var errNoTenant = errors.New("ingest: JSONL event without a tenant (set ?tenant= on /v1/ingest)")

// line takes one line, which it only borrows: a line-protocol line is
// parsed in place and its event joins the run. Blank lines are skipped.
func (b *batch) line(line []byte) {
	if line = bytes.TrimSpace(line); len(line) == 0 {
		return
	}
	var tenant []byte
	var ev trace.Event
	var err error
	switch {
	case line[0] != '{':
		tenant, ev, err = parseLine(line)
	case len(b.jsonl) == 0:
		err = errNoTenant
	default:
		tenant = b.jsonl
		ev, err = decodeJSONL(line)
	}
	if err == nil {
		err = b.agg.checkServers(&ev)
	}
	if err != nil {
		b.flush()
		b.reject(err)
		return
	}
	if n := len(b.run.events); n == 0 || n == runCap || !bytes.Equal(tenant, b.run.tenant) {
		b.flush()
		b.run.tenant = append(b.run.tenant[:0], tenant...)
		b.run.now = b.agg.cfg.Now()
	}
	b.run.events = append(b.run.events, ev)
}

// flush folds the pending run.
func (b *batch) flush() {
	if len(b.run.events) > 0 {
		fold(b.agg, b.run.tenant, b.run.events, b.run.now, &b.tally)
		b.run.events = b.run.events[:0]
	}
}

// done folds what is pending, returns the run to its pool and publishes
// the batch's counters.
func (b *batch) done() {
	b.flush()
	runs.Put(b.run)
	ingestLines.Add(uint64(b.accepted + b.drops + b.malformed))
	ingestEvents.Add(uint64(b.accepted))
	ingestParseErrors.Add(uint64(b.malformed))
	ingestDrops.Add(uint64(b.drops))
}

// decodeJSONL decodes one trace.v1 event. Unmarshal makes its target
// escape, hence apart from batch.line, whose event stays on the stack.
func decodeJSONL(line []byte) (ev trace.Event, err error) {
	if err = json.Unmarshal(line, &ev); err != nil {
		err = fmt.Errorf("ingest: bad JSONL event: %w", err)
	}
	return ev, err
}

// IngestResponse reports one HTTP batch's outcome. The endpoint is
// forgiving: bad lines are counted and sampled, good lines land — an
// emitter losing one observation must not lose the batch.
type IngestResponse struct {
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
	// Error samples the first rejection, for emitter-side debugging; on
	// a non-200 response it is the batch-level error instead.
	Error string `json:"error,omitempty"`
}

// scanBufs holds the scanners' initial line buffers, so a request costs
// no 64 KiB allocation; only a longer line makes its scanner grow one.
var scanBufs = sync.Pool{New: func() any { return new([64 * 1024]byte) }}

// handleIngest accepts a newline-separated batch of observations —
// line-protocol lines and/or trace.v1 JSONL events, freely mixed.
// ?tenant= names the tenant JSONL events (which carry none) land in.
//
// Ingestion is at-least-once: lines are folded into the aggregator run
// by run as they are scanned, each run in the window of its first line
// (a streamed body shows run by run, not line by line), and the pending
// run is folded before any error is reported, so when a batch fails
// mid-stream (a line over the 1 MiB limit, a body over -max-body) the
// lines scanned before it stay applied. The error response carries the
// accepted/rejected counts so a retrying emitter can resume after
// `accepted` lines instead of re-sending (and double-counting) the batch.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.fail(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	b := s.newBatch([]byte(r.URL.Query().Get("tenant")))
	buf := scanBufs.Get().(*[64 * 1024]byte)
	defer scanBufs.Put(buf)
	sc := bufio.NewScanner(http.MaxBytesReader(w, r.Body, s.maxBody))
	sc.Buffer(buf[:], 1<<20)
	for sc.Scan() {
		b.line(sc.Bytes())
	}
	b.done()
	resp := IngestResponse{Accepted: b.accepted, Rejected: b.drops + b.malformed}
	if b.first != nil {
		resp.Error = b.first.Error()
	}
	if err := sc.Err(); err != nil {
		code := http.StatusBadRequest
		resp.Error = "read batch: " + err.Error()
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
			resp.Error = fmt.Sprintf("batch exceeds %d bytes", s.maxBody)
		}
		writeJSON(w, code, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSnapshot serves one tenant's merged live windows. The merge is
// the daemon's "flush": it is timed, counted, and spanned (flush →
// downstream fit joins via the echoed traceparent).
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	tenant := r.URL.Query().Get("tenant")
	if tenant == "" {
		s.fail(w, http.StatusBadRequest, "missing ?tenant=")
		return
	}
	span := s.tracer.StartRoot("/v1/snapshot", r.Header.Get(obs.TraceparentHeader), "tenant", tenant)
	if span != nil {
		w.Header().Set(obs.TraceparentHeader, span.Traceparent())
	}
	defer span.End()

	flush := span.Child("flush")
	t0 := time.Now()
	snap, err := s.agg.Snapshot(tenant)
	ingestFlushSeconds.Observe(time.Since(t0).Seconds())
	flush.End()
	if err != nil {
		if errors.Is(err, ErrUnknownTenant) {
			span.SetAttr("code", http.StatusNotFound)
			s.fail(w, http.StatusNotFound, err.Error())
			return
		}
		span.SetAttr("code", http.StatusInternalServerError)
		s.fail(w, http.StatusInternalServerError, err.Error())
		return
	}
	ingestSnapshots.Inc()
	span.SetAttr("code", http.StatusOK)
	span.SetAttr("events", snap.Events)
	writeJSON(w, http.StatusOK, snap)
}

// ServeUDP consumes line-protocol datagrams from conn until ctx is
// cancelled. One datagram may carry several newline-separated lines
// (emitters batch to amortize syscalls); bad lines are counted and
// skipped, good lines in the same datagram still land.
func (s *Server) ServeUDP(ctx context.Context, conn net.PacketConn) error {
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-done:
		}
	}()
	buf := make([]byte, 64*1024)
	for {
		n, _, err := conn.ReadFrom(buf)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("ingest: udp read: %w", err)
		}
		s.datagram(buf[:n])
	}
}

// datagram folds one datagram's lines. Datagram emitters get no response
// channel; refusals surface only through the parse-error and drop
// counters.
func (s *Server) datagram(p []byte) {
	ingestDatagrams.Inc()
	b := s.newBatch(nil)
	for line, rest := []byte(nil), p; len(rest) > 0; {
		line, rest, _ = bytes.Cut(rest, []byte("\n"))
		b.line(line)
	}
	b.done()
}

// RunSweeper runs the maintenance sweep on a ticker until ctx is
// cancelled, keeping the liveness gauges fresh and evicting idle
// tenants (interval 0 = one window).
func (s *Server) RunSweeper(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = s.agg.cfg.Window
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			s.Sweep()
		}
	}
}

// Sweep runs one maintenance pass and exports its findings.
func (s *Server) Sweep() SweepStats {
	st := s.agg.Sweep()
	ingestActiveTenants.Set(float64(st.Tenants))
	ingestActiveChannels.Set(float64(st.Channels))
	ingestStaleChannels.Set(float64(st.Stale))
	ingestEvictions.Add(uint64(st.Evicted))
	return st
}

// fail sends a JSON error response.
func (s *Server) fail(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// writeJSON sends v as the response body with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
