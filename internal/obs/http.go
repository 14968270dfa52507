package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
)

// Handler serves the registry: GET /metrics (Prometheus text format) and
// GET /metrics.json (Snapshot as JSON).
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
	return mux
}

// handleVars returns the /debug/vars handler: expvar's published
// variables and, under "dtr_metrics", the snapshot of r — the registry
// the surface was mounted for, not the default one.
func handleVars(r *Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		snap, err := json.Marshal(r.Snapshot())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		fmt.Fprintf(w, "{\n")
		expvar.Do(func(kv expvar.KeyValue) {
			fmt.Fprintf(w, "%q: %s,\n", kv.Key, kv.Value)
		})
		fmt.Fprintf(w, "%q: %s\n}\n", "dtr_metrics", snap)
	}
}

// Register mounts the full exposition surface for r on mux: /metrics
// (Prometheus text), /metrics.json (Snapshot JSON), /debug/vars
// (expvar's variables and r's snapshot), /debug/requests (the default
// tracer's recent/slowest trace trees — empty JSON when tracing is off),
// /debug/solver (the solver-health subset of the registry, summarized)
// and — when withPProf — the net/http/pprof handlers under
// /debug/pprof/. Long-running daemons use it to share one mux between
// their API and their telemetry; the CLIs route through it too.
func Register(mux *http.ServeMux, r *Registry, withPProf bool) {
	mux.Handle("/metrics", r.Handler())
	mux.Handle("/metrics.json", r.Handler())
	mux.HandleFunc("/debug/vars", handleVars(r))
	mux.HandleFunc("/debug/requests", handleRequests)
	mux.HandleFunc("/debug/solver", handleSolver(r))
	if withPProf {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// solverPrefixes selects the metric families /debug/solver summarizes:
// numerical solver health plus the policy-search and drift-detector
// telemetry that interprets it.
var solverPrefixes = []string{"dtr_solver_", "dtr_direct_", "dtr_policy_", "dtr_adapt_"}

// handleSolver returns the /debug/solver handler: a compact JSON rollup
// of the solver-health metrics — counters and gauges verbatim,
// histograms reduced to {count, mean, p50, p99} — so a human (or a
// runbook) can read one document instead of scraping /metrics.
func handleSolver(r *Registry) http.HandlerFunc {
	matches := func(name string) bool {
		for _, p := range solverPrefixes {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	type histSummary struct {
		Count uint64  `json:"count"`
		Mean  float64 `json:"mean"`
		P50   float64 `json:"p50"`
		P99   float64 `json:"p99"`
	}
	return func(w http.ResponseWriter, req *http.Request) {
		snap := r.Snapshot()
		out := struct {
			Counters   map[string]uint64      `json:"counters"`
			Gauges     map[string]float64     `json:"gauges"`
			Histograms map[string]histSummary `json:"histograms"`
		}{
			Counters:   map[string]uint64{},
			Gauges:     map[string]float64{},
			Histograms: map[string]histSummary{},
		}
		for name, v := range snap.Counters {
			if matches(name) {
				out.Counters[name] = v
			}
		}
		for name, v := range snap.Gauges {
			if matches(name) {
				out.Gauges[name] = v
			}
		}
		for name, h := range snap.Histograms {
			if matches(name) {
				out.Histograms[name] = histSummary{
					Count: h.Count, Mean: h.Mean(),
					P50: h.Quantile(0.5), P99: h.Quantile(0.99),
				}
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	}
}

// NewHandler returns a standalone http.Handler exposing r — the same
// surface Register mounts, on a fresh mux.
func NewHandler(r *Registry, withPProf bool) http.Handler {
	mux := http.NewServeMux()
	Register(mux, r, withPProf)
	return mux
}

// Server is a live metrics endpoint: /metrics, /metrics.json,
// /debug/vars (expvar), and — when pprof is on — the net/http/pprof
// handlers under /debug/pprof/.
type Server struct {
	// Addr is the bound address, e.g. "127.0.0.1:43521" when the
	// listener was asked for ":0".
	Addr string

	ln net.Listener
}

// serveOn serves r on a listener already bound, on a background
// goroutine until Close.
func serveOn(ln net.Listener, r *Registry, withPProf bool) *Server {
	mux := NewHandler(r, withPProf)
	go func() {
		_ = http.Serve(ln, mux) // returns when the listener closes
	}()
	return &Server{Addr: ln.Addr().String(), ln: ln}
}

// Close stops the endpoint.
func (s *Server) Close() error {
	if s == nil || s.ln == nil {
		return nil
	}
	return s.ln.Close()
}
