// Package serve turns the dtr planning library into a long-running
// HTTP/JSON service: the cmd/dtrplan verbs as POST endpoints over the
// modelspec document format, with the three properties a central
// controller needs under heavy traffic:
//
//   - request coalescing and result caching: requests are keyed by a
//     canonical fingerprint (normalized spec + verb + normalized
//     options), concurrent identical requests share one solver execution
//     (singleflight) and finished results live in a bounded LRU — the
//     solvers are deterministic for a fixed spec+seed, so cached bytes
//     are exactly what a fresh computation would produce;
//   - admission control: a bounded in-flight semaphore sized off the
//     solver worker budget plus a bounded wait queue, per-request
//     deadlines via context, and 413/429/504 on oversized, overflowing
//     and expired requests respectively;
//   - observability: request/error counters by endpoint and status,
//     latency and queue-wait histograms, in-flight and cache-size gauges
//     on an internal/obs registry, exposable on the same mux.
//
// Endpoints: POST /v1/optimize, /v1/metrics, /v1/simulate, /v1/bounds,
// /v1/cdf, /v1/explain, /v1/batch, /v1/fit, plus GET /healthz (liveness:
// always 200 while the process runs), GET /readyz (readiness: 503 while
// the cache is warming or the instance is draining) and GET
// /v1/cache/warm (peer cache fill: the cached entries a restarting
// replica owns, as a dtr.cachesnap.v1 document). Once StartDrain is
// called (the daemon wires it to graceful shutdown) /readyz flips to 503
// so load balancers and cluster peers stop routing to a terminating
// instance.
//
// With Config.Cluster set the service is one shard of a fleet: a request
// whose canonical fingerprint hashes to another replica is forwarded to
// that owner (so the fleet computes each distinct spec once), a request
// carrying the cluster hop header is always answered locally (loop
// guard), and a total forwarding failure degrades to local computation.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"dtr/internal/cluster"
	"dtr/internal/obs"
	"dtr/internal/par"
)

// Config sizes the service. The zero value is usable: every field has a
// production default.
type Config struct {
	// Workers is the solver worker budget shared with internal/par
	// semantics (0 = GOMAXPROCS). It sizes both each computation's
	// parallelism and, by default, the admission semaphore.
	Workers int
	// MaxInflight bounds concurrently executing computations
	// (0 = resolved Workers).
	MaxInflight int
	// MaxQueued bounds computations waiting for an in-flight slot
	// (0 = 4×MaxInflight; negative = no waiting). Overflow → 429.
	MaxQueued int
	// Timeout caps every computation and is the default per-request
	// deadline (0 = 60s). Expiry → 504.
	Timeout time.Duration
	// MaxBody caps request bodies in bytes (0 = 1 MiB). Overflow → 413.
	MaxBody int64
	// CacheSize bounds the result cache in entries (0 = 512; negative
	// disables caching).
	CacheSize int
	// CacheBytes additionally bounds the result cache's total byte
	// footprint (0 = entry count only). Eviction stays LRU; the byte cap
	// just adds a second eviction trigger.
	CacheBytes int64
	// SolverCacheBytes is the byte budget of the solver-table tier under
	// the result cache: the prefix tables of models seen at least twice,
	// shared by every later request on the same model and grid whatever
	// its verb or options (0 = 16 MiB; negative disables the tier).
	SolverCacheBytes int64
	// Cluster, when set, makes this service one shard of a fleet:
	// requests owned by another replica are forwarded to it instead of
	// computed locally. Nil = standalone serving.
	Cluster *cluster.Cluster
	// Registry receives the service metrics (nil = metrics off).
	Registry *obs.Registry
	// Tracer receives request-scoped span trees (nil = tracing off).
	// Every /v1/ request gets a root span — adopting the W3C traceparent
	// header when the caller sent one, echoing its own traceparent on the
	// response — with children for cache lookup, queue wait, the solve and
	// the solver phases underneath it.
	Tracer *obs.Tracer
}

// Service is the planning service. Create with New, mount with Register
// or Handler.
type Service struct {
	cfg      Config
	cache    *lru
	solvers  *solverCache // nil = tier off
	flight   *flightGroup
	admit    *admitter
	reg      *obs.Registry
	tracer   *obs.Tracer
	cluster  *cluster.Cluster
	draining atomic.Bool
	notReady atomic.Bool // zero value = ready, so direct constructions serve immediately
}

// New builds a Service from cfg, applying defaults.
func New(cfg Config) *Service {
	cfg.Workers = par.Workers(cfg.Workers)
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = cfg.Workers
	}
	switch {
	case cfg.MaxQueued == 0:
		cfg.MaxQueued = 4 * cfg.MaxInflight
	case cfg.MaxQueued < 0:
		cfg.MaxQueued = 0
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 1 << 20
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 512
	}
	s := &Service{
		cfg:     cfg,
		cache:   newLRU(cfg.CacheSize, cfg.CacheBytes),
		solvers: newSolverCache(cfg.SolverCacheBytes, cfg.Registry),
		flight:  newFlightGroup(),
		reg:     cfg.Registry,
		tracer:  cfg.Tracer,
		cluster: cfg.Cluster,
	}
	s.admit = newAdmitter(cfg.MaxInflight, cfg.MaxQueued, func(sec float64) {
		s.reg.Histogram("dtr_serve_queue_wait_seconds", nil).Observe(sec)
	})
	return s
}

// Register mounts the /v1/ endpoints, /healthz and /readyz on mux.
func (s *Service) Register(mux *http.ServeMux) {
	for _, v := range verbs {
		mux.Handle("/v1/"+v.name, s.endpoint(v.name, s.handleVerb(v.name)))
	}
	mux.Handle("/v1/batch", s.endpoint("batch", s.handleBatch))
	mux.Handle("/v1/fit", s.endpoint("fit", s.handleFit))
	mux.HandleFunc("/v1/cache/warm", s.handleWarm)
	// Liveness: the process is up and serving HTTP. Never 503 — a
	// draining or warming instance is alive, just not ready.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	// Readiness: safe to route new work here. 503 while warming (the
	// daemon is still loading/pulling the cache) and permanently once
	// draining begins. Cluster peers probe this endpoint.
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch {
		case s.draining.Load():
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"status":"draining"}`)
		case s.notReady.Load():
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"status":"warming"}`)
		default:
			fmt.Fprintln(w, `{"status":"ok"}`)
		}
	})
}

// StartDrain flips /readyz to 503 ("draining"): a load balancer's next
// probe sees the instance as unready and stops routing new work to it,
// while in-flight requests continue to completion. The daemon wires
// this to http.Server.RegisterOnShutdown so the flip happens the moment
// graceful shutdown begins. Idempotent and irreversible.
func (s *Service) StartDrain() { s.draining.Store(true) }

// SetReady flips the /readyz warming gate. A freshly constructed
// Service is ready; a daemon that warms its cache at boot calls
// SetReady(false) before listening and SetReady(true) once warm.
// Draining overrides readiness permanently.
func (s *Service) SetReady(ready bool) { s.notReady.Store(!ready) }

// ErrorResponse is the JSON body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// result is a finished computation outcome flowing between the internal
// pipeline and the HTTP layer.
type result struct {
	status int
	body   []byte // response JSON for 200, nil otherwise
	errMsg string // detail for non-200
}

// endpoint wraps a handler with the shared instrumentation: per-endpoint
// request counters by status code, a latency histogram and (when the
// service has a tracer) a root request span. The span adopts the
// caller's W3C traceparent header when present and the response carries
// this request's own traceparent, so traces join across the adapt-loop →
// dtrserved hop in either direction.
func (s *Service) endpoint(name string, h func(w http.ResponseWriter, r *http.Request) int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		span := s.tracer.StartRoot("/v1/"+name, r.Header.Get(obs.TraceparentHeader), "endpoint", name)
		if span != nil {
			w.Header().Set(obs.TraceparentHeader, span.Traceparent())
			r = r.WithContext(obs.ContextWithSpan(r.Context(), span))
		}
		if from := r.Header.Get(cluster.HopHeader); from != "" {
			// Loop guard: a request that already crossed one cluster hop
			// is answered locally no matter what our ring says.
			r = r.WithContext(context.WithValue(r.Context(), hopCtxKey{}, true))
			span.SetAttr("cluster_hop_from", from)
			s.reg.Counter("dtr_serve_hop_requests_total").Add(1)
		}
		code := h(w, r)
		span.SetAttr("code", code)
		span.End()
		dur := time.Since(t0)
		span.Logger().Debug("request served", "endpoint", name, "code", code, "dur", dur)
		s.reg.Histogram(obs.Name("dtr_serve_latency_seconds", "endpoint", name), nil).
			Observe(dur.Seconds())
		s.reg.Counter(obs.Name("dtr_serve_requests_total", "endpoint", name, "code", strconv.Itoa(code))).Add(1)
	})
}

// handleVerb builds the handler for one planning verb.
func (s *Service) handleVerb(verb string) func(http.ResponseWriter, *http.Request) int {
	return func(w http.ResponseWriter, r *http.Request) int {
		var req Request
		if code := s.decode(w, r, &req); code != 0 {
			return code
		}
		res := s.process(r.Context(), verb, &req)
		return s.write(w, res)
	}
}

// decode reads and strictly parses a JSON body into dst, answering
// 405/413/400 itself (returning the code) on failure; 0 means success.
func (s *Service) decode(w http.ResponseWriter, r *http.Request, dst any) int {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		return s.fail(w, http.StatusMethodNotAllowed, "POST only")
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return s.fail(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBody))
		}
		return s.fail(w, http.StatusBadRequest, "invalid request JSON: "+err.Error())
	}
	return 0
}

// process is the verb pipeline shared by the direct endpoints and the
// batch fan-out. It carries the per-verb instrumentation — unlike the
// per-endpoint counters, these count every planning computation
// including /v1/batch members, so batch traffic is visible per verb.
func (s *Service) process(ctx context.Context, verb string, req *Request) result {
	t0 := time.Now()
	res := s.pipeline(ctx, verb, req)
	s.reg.Histogram(obs.Name("dtr_serve_verb_latency_seconds", "verb", verb), nil).
		Observe(time.Since(t0).Seconds())
	s.reg.Counter(obs.Name("dtr_serve_verb_requests_total", "verb", verb, "code", strconv.Itoa(res.status))).Add(1)
	return res
}

// pipeline runs one planning computation:
// validate → cache → coalesce → admit → compute.
func (s *Service) pipeline(ctx context.Context, verb string, req *Request) result {
	pr, err := parseRequest(verb, req)
	if err != nil {
		var bad badRequest
		if errors.As(err, &bad) {
			return result{status: http.StatusBadRequest, errMsg: bad.Error()}
		}
		return result{status: http.StatusInternalServerError, errMsg: err.Error()}
	}

	// Bound how long this caller waits: its own timeoutMs if set (clamped
	// to the server cap), the server cap otherwise.
	wait := s.cfg.Timeout
	if pr.timeout > 0 && pr.timeout < wait {
		wait = pr.timeout
	}
	ctx, cancel := context.WithTimeout(ctx, wait)
	defer cancel()

	span := obs.SpanFromContext(ctx)

	lookup := span.Child("cache_lookup")
	body, hit := s.cache.Get(pr.key)
	lookup.SetAttr("hit", hit)
	lookup.End()
	if hit {
		s.reg.Counter("dtr_serve_cache_hits_total").Add(1)
		return result{status: http.StatusOK, body: body}
	}
	s.reg.Counter("dtr_serve_cache_misses_total").Add(1)

	// Cluster routing: a cache miss on a key another replica owns is
	// forwarded to that owner, unless this request already crossed a hop
	// (loop guard) — then it is always computed here. A total forwarding
	// failure falls through to local computation: the cluster layer can
	// reduce cache efficiency, never availability.
	if s.cluster != nil && !hopFromContext(ctx) {
		if _, local := s.cluster.Route(pr.key); !local {
			if res, answered := s.forward(ctx, span, pr, req); answered {
				return res
			}
			s.reg.Counter("dtr_serve_local_fallback_total").Add(1)
		}
	}

	f, leader := s.flight.join(pr.key)
	var waitSpan *obs.Span
	if leader {
		// Run the flight on its own goroutine under the server-wide
		// timeout, detached from this caller's context: if this caller
		// gives up early, coalesced followers (and the cache) still get
		// the result. The leader's span hosts the flight's queue-wait and
		// solve children; if the leader times out first, its exported tree
		// simply omits the spans the detached flight had not finished.
		go s.runFlight(pr, f, span)
	} else {
		s.reg.Counter("dtr_serve_coalesced_total").Add(1)
		waitSpan = span.Child("coalesced_wait")
	}
	defer waitSpan.End()

	select {
	case <-f.done:
		return result{status: f.status, body: f.body, errMsg: f.errMsg}
	case <-ctx.Done():
		return result{status: http.StatusGatewayTimeout,
			errMsg: fmt.Sprintf("deadline exceeded after %s (the computation continues and will be cached)", wait)}
	}
}

// runFlight executes one coalesced computation: admission, solve,
// encode, cache. The leader's request span (nil when tracing is off)
// receives the queue-wait and solve sub-spans.
func (s *Service) runFlight(pr *parsedRequest, f *flight, span *obs.Span) {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.Timeout)
	defer cancel()

	qw := span.Child("queue_wait")
	err := s.admit.acquire(ctx)
	qw.End()
	if err != nil {
		if errors.Is(err, errQueueFull) {
			s.flight.finish(pr.key, f, nil, http.StatusTooManyRequests,
				fmt.Sprintf("over capacity: %d computations running and %d queued",
					s.cfg.MaxInflight, s.cfg.MaxQueued))
			return
		}
		s.flight.finish(pr.key, f, nil, http.StatusGatewayTimeout,
			"timed out waiting for an execution slot")
		return
	}
	defer s.admit.release()

	s.reg.Gauge("dtr_serve_inflight").Add(1)
	defer s.reg.Gauge("dtr_serve_inflight").Add(-1)
	s.reg.Counter("dtr_serve_computes_total").Add(1)

	solve := span.Child("solve", "verb", pr.verb.name)
	solvers := s.solvers.lease(pr)
	resp, err := compute(pr, s.cfg.Workers, solve, solvers)
	solvers.release()
	solve.End()
	span.Logger().Debug("flight computed", "verb", pr.verb.name, "key", pr.key, "err", err != nil)
	if err != nil {
		s.flight.finish(pr.key, f, nil, http.StatusInternalServerError, err.Error())
		return
	}
	body, err := json.Marshal(resp)
	if err != nil {
		s.flight.finish(pr.key, f, nil, http.StatusInternalServerError, "encode response: "+err.Error())
		return
	}
	body = append(body, '\n')
	s.cachePut(pr.key, body, pr.verb.name, pr.specJSON, pr.optsJSON)
	s.flight.finish(pr.key, f, body, http.StatusOK, "")
}

// cachePut inserts one finished body with its canonical request and
// refreshes the cache gauges.
func (s *Service) cachePut(key string, body []byte, verb string, spec, opts []byte) {
	if ev := s.cache.Put(key, body, verb, spec, opts); ev > 0 {
		s.reg.Counter("dtr_serve_cache_evictions_total").Add(uint64(ev))
	}
	s.reg.Gauge("dtr_serve_cache_entries").Set(float64(s.cache.Len()))
	s.reg.Gauge("dtr_serve_cache_bytes").Set(float64(s.cache.Bytes()))
}

// hopCtxKey marks a request context that arrived via a cluster hop.
type hopCtxKey struct{}

func hopFromContext(ctx context.Context) bool {
	v, _ := ctx.Value(hopCtxKey{}).(bool)
	return v
}

// forward ships one planning request to its owning replica (with the
// cluster client's successor hedging) and adapts the peer's answer.
// answered is false only on a total transport failure — the caller then
// computes locally. Any HTTP status from a peer is authoritative: its
// 400/429/504 is exactly what admission semantics require here too. A
// forwarded 200 is cached locally, so repeats of a hot key served here
// hit the local LRU without another hop.
func (s *Service) forward(ctx context.Context, span *obs.Span, pr *parsedRequest, req *Request) (res result, answered bool) {
	fspan := span.Child("peer_forward", "key", pr.key)
	defer fspan.End()
	body, err := json.Marshal(req)
	if err != nil {
		fspan.SetAttr("error", err)
		return result{}, false
	}
	resp, err := s.cluster.Forward(ctx, fspan, pr.key, "/v1/"+pr.verb.name, body)
	if err != nil {
		fspan.SetAttr("error", err)
		return result{}, false
	}
	fspan.SetAttr("peer", resp.Peer)
	fspan.SetAttr("code", resp.Status)
	s.reg.Counter("dtr_serve_forwarded_total").Add(1)
	if resp.Status == http.StatusOK {
		s.cachePut(pr.key, resp.Body, pr.verb.name, pr.specJSON, pr.optsJSON)
		return result{status: http.StatusOK, body: resp.Body}, true
	}
	msg := strings.TrimSpace(string(resp.Body))
	var er ErrorResponse
	if json.Unmarshal(resp.Body, &er) == nil && er.Error != "" {
		msg = er.Error
	}
	return result{status: resp.Status, errMsg: msg}, true
}

// write sends a finished result as the HTTP response.
func (s *Service) write(w http.ResponseWriter, res result) int {
	if res.status == http.StatusOK {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(res.body)
		return res.status
	}
	return s.fail(w, res.status, res.errMsg)
}

// fail sends an ErrorResponse and returns the code for instrumentation.
func (s *Service) fail(w http.ResponseWriter, code int, msg string) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(ErrorResponse{Error: msg})
	return code
}
