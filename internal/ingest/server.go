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
// UDP datagram loop, both feeding the same parse → validate → observe
// path.
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

// observeLine is the shared per-line path for UDP and HTTP: sniff the
// format (JSONL trace.v1 events start with '{', everything else is the
// line protocol), parse, validate, fold. defaultTenant applies to JSONL
// events, which carry no tenant of their own. line is trimmed, not empty
// and only borrowed: a line-protocol line is parsed in place and costs
// no allocation for a known tenant, and one — the map key, copied out of
// the buffer — for a new one.
func (s *Server) observeLine(line []byte, defaultTenant string) error {
	ingestLines.Inc()
	var err error
	switch {
	case line[0] != '{':
		tenant, ev, perr := parseLine(line)
		if err = perr; err == nil {
			err = observe(s.agg, tenant, ev)
		}
	case defaultTenant == "":
		err = fmt.Errorf("ingest: JSONL event without a tenant (set ?tenant= on /v1/ingest)")
	default:
		ev, derr := decodeJSONL(line)
		if err = derr; err == nil {
			err = s.agg.Observe(defaultTenant, ev)
		}
	}
	switch {
	case err == nil:
		ingestEvents.Inc()
	case errors.Is(err, ErrChannelLimit) || errors.Is(err, ErrServerLimit) || errors.Is(err, ErrTenantLimit):
		ingestDrops.Inc()
	default:
		ingestParseErrors.Inc()
	}
	return err
}

// decodeJSONL decodes one trace.v1 event. Unmarshal makes its target
// escape, hence apart from observeLine, whose event stays on the stack.
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
// Ingestion is at-least-once: lines are folded into the aggregator as
// they are scanned, so when a batch fails mid-stream (a line over the
// 1 MiB limit, a body over -max-body) the lines already applied stay
// applied. The error response carries the accepted/rejected counts so
// a retrying emitter can resume after `accepted` lines instead of
// re-sending (and double-counting) the whole batch.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.fail(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	defaultTenant := r.URL.Query().Get("tenant")
	var resp IngestResponse
	buf := scanBufs.Get().(*[64 * 1024]byte)
	defer scanBufs.Put(buf)
	sc := bufio.NewScanner(http.MaxBytesReader(w, r.Body, s.maxBody))
	sc.Buffer(buf[:], 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if err := s.observeLine(line, defaultTenant); err != nil {
			resp.Rejected++
			if resp.Error == "" {
				resp.Error = err.Error()
			}
			continue
		}
		resp.Accepted++
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
		ingestDatagrams.Inc()
		for line, rest := []byte(nil), buf[:n]; len(rest) > 0; {
			line, rest, _ = bytes.Cut(rest, []byte("\n"))
			// Datagram emitters get no response channel; errors surface
			// only through the parse-error and drop counters.
			if line = bytes.TrimSpace(line); len(line) > 0 {
				_ = s.observeLine(line, "")
			}
		}
	}
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
