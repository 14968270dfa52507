// Command dtrserved is the long-running planning service: the dtrplan
// verbs as an HTTP/JSON daemon with request coalescing, result caching
// and admission control (see internal/serve).
//
//	dtrserved -addr :8080
//	curl -s localhost:8080/v1/optimize -d '{"spec": '"$(cat examples/specs/testbed.json)"'}'
//
// Endpoints: POST /v1/<verb> for the planning verbs (one request body for
// all of them, documented on serve.Request), /v1/batch to fan several out
// in one call and /v1/fit to fit a modelspec document to captured trace
// events; GET /v1/cache/warm (peer cache fill, a dtr.cachesnap.v1
// document), /healthz (liveness: 200 while the process runs) and /readyz
// (readiness: 503 while warming or draining).
//
// Telemetry rides on the same listener: /metrics (Prometheus text),
// /metrics.json, /debug/vars, /debug/solver (solver-health rollup) and —
// with -pprof — /debug/pprof/.
//
// Cluster mode (-peers with -self) makes this replica one shard of a
// fleet: a consistent-hash ring over canonical request fingerprints
// routes each distinct spec to one owner, peers probe each other's
// /readyz and eject dead members, and a restarting replica warms its
// cache from -cache-snapshot and its peers before reporting ready. See
// the README "Clustering" section.
//
// SIGTERM/SIGINT drain gracefully: /readyz flips to 503 so load
// balancers and cluster peers stop routing here, the listener closes,
// in-flight requests run to completion (bounded by -drain-timeout), the
// result cache is snapshotted to -cache-snapshot (when set), then the
// process exits 0.
package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"dtr/internal/cluster"
	"dtr/internal/obs"
	"dtr/internal/par"
	"dtr/internal/serve"
)

func main() {
	obs.Exit("dtrserved", run(os.Args[1:]))
}

func run(args []string) error {
	fs := obs.NewFlagSet("dtrserved", "dtrserved [-addr :8080] [-workers N] [-cache N] [-timeout 60s] ...")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (\":0\" picks a free port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening (for scripts driving \":0\")")
	workers := par.BindFlag(fs)
	maxInflight := fs.Int("max-inflight", 0, "concurrent computations admitted (0 = the -workers budget)")
	maxQueue := fs.Int("max-queue", 0, "computations allowed to wait for a slot; beyond it requests get 429 (0 = 4×max-inflight, -1 = none)")
	timeout := fs.Duration("timeout", 60*time.Second, "per-request computation deadline; expiry answers 504")
	maxBody := fs.Int64("max-body", 1<<20, "request body size cap in bytes; beyond it requests get 413")
	cacheSize := fs.Int("cache", 512, "result-cache entries (LRU; -1 disables caching)")
	cacheBytes := fs.Int64("cache-bytes", 0, "result-cache byte cap; evicts LRU entries beyond it (0 = entry count only)")
	solverCacheBytes := fs.Int64("solver-cache-bytes", 0, "byte budget of the solver-table tier: prefix tables and policy sweeps of models seen twice (the second sighting adopts the first build while it is alive), shared across verbs (0 = 16 MiB, -1 disables)")
	cacheSnap := fs.String("cache-snapshot", "", "snapshot the result cache to this file on drain and reload it on boot")
	peers := fs.String("peers", "", "comma-separated base URLs of every fleet replica (self included) — enables cluster mode")
	self := fs.String("self", "", "this replica's own base URL as it appears in -peers (required with -peers)")
	probeInterval := fs.Duration("probe-interval", 2*time.Second, "cluster peer health-probe period (negative disables probing)")
	forwardTimeout := fs.Duration("forward-timeout", 30*time.Second, "per-attempt deadline for requests forwarded to their owner replica")
	hedgeDelay := fs.Duration("hedge-delay", 0, "launch the ring-successor attempt this long after the owner attempt (0 = only on owner failure)")
	drain := fs.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight requests before exiting")
	withPProf := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the service listener")
	logLevel := fs.String("log-level", "info", "structured log level on stderr: debug, info, warn, error or off")
	withTrace := fs.Bool("trace", true, "trace every request: span trees on /debug/requests, W3C traceparent in and out")
	traceOut := fs.String("trace-out", "", "also append completed span trees as JSONL to this file (implies -trace)")
	if err := obs.ParseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return obs.UsageErrorf(fs, "unexpected argument %q", fs.Arg(0))
	}
	if err := workers.Validate(); err != nil {
		return obs.UsageErrorf(fs, "%v", err)
	}
	if *timeout <= 0 || *drain <= 0 {
		return obs.UsageErrorf(fs, "-timeout and -drain-timeout must be positive")
	}
	if *peers != "" && *self == "" {
		return obs.UsageErrorf(fs, "-peers requires -self (this replica's own URL)")
	}
	if *peers == "" && *self != "" {
		return obs.UsageErrorf(fs, "-self is meaningful only with -peers")
	}

	// One registry for the serve layer and every solver package, exposed
	// on the service mux; every request's span tree lands on
	// /debug/requests and, with -trace-out, in a JSONL file.
	proc, err := obs.Install(*logLevel, os.Stderr, *withTrace, *traceOut)
	if err != nil {
		return err
	}
	defer proc.Close()

	// Cluster mode: a static peer list turns this replica into one shard
	// of a fleet. The cluster's health prober starts once we listen.
	var cl *cluster.Cluster
	if *peers != "" {
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, strings.TrimRight(p, "/"))
			}
		}
		cl, err = cluster.New(cluster.Config{
			Self:           strings.TrimRight(*self, "/"),
			Peers:          peerList,
			ProbeInterval:  *probeInterval,
			ForwardTimeout: *forwardTimeout,
			HedgeDelay:     *hedgeDelay,
			Registry:       proc.Registry,
		})
		if err != nil {
			return obs.UsageErrorf(fs, "%v", err)
		}
	}

	svc := serve.New(serve.Config{
		Workers:          workers.N,
		MaxInflight:      *maxInflight,
		MaxQueued:        *maxQueue,
		Timeout:          *timeout,
		MaxBody:          *maxBody,
		CacheSize:        *cacheSize,
		CacheBytes:       *cacheBytes,
		SolverCacheBytes: *solverCacheBytes,
		Cluster:          cl,
		Registry:         proc.Registry,
		Tracer:           proc.Tracer,
	})
	mux := http.NewServeMux()
	svc.Register(mux)
	obs.Register(mux, proc.Registry, *withPProf)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *addr, err)
	}
	obs.Logger().Info("dtrserved up", "addr", ln.Addr().String(), "workers", par.Workers(workers.N))

	// Warm boot: until the snapshot reloads and the fleet is consulted,
	// /readyz reports warming so cluster peers and load balancers hold
	// traffic off a cold cache. Warming is asynchronous and best-effort —
	// the listener and /healthz are up immediately, and a failed warm
	// still becomes ready (cold), never a failed boot.
	if *cacheSnap != "" || cl != nil {
		svc.SetReady(false)
		go func() {
			if *cacheSnap != "" {
				if n, err := svc.LoadCacheSnapshotFile(*cacheSnap); err != nil {
					obs.Logger().Warn("cache snapshot reload failed", "path", *cacheSnap, "err", err)
				} else if n > 0 {
					obs.Logger().Info("cache snapshot reloaded", "path", *cacheSnap, "entries", n)
				}
			}
			if cl != nil {
				warmCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				if n := svc.WarmFromPeers(warmCtx); n > 0 {
					obs.Logger().Info("cache warmed from peers", "entries", n)
				}
				cancel()
			}
			svc.SetReady(true)
		}()
	}
	if cl != nil {
		cl.Start()
		defer cl.Stop()
	}

	// The instant draining begins, /readyz reports it so load balancers
	// and cluster peers pull this instance before its listener disappears.
	if err := obs.ServeDaemon("dtrserved", ln, *addrFile, mux, *drain, svc.StartDrain, nil); err != nil {
		return err
	}
	// Snapshot-on-drain: persist the warm cache so the next boot (or a
	// peer fill) starts hot instead of recomputing the working set.
	if *cacheSnap != "" {
		if err := svc.WriteCacheSnapshot(*cacheSnap); err != nil {
			return fmt.Errorf("cache snapshot: %w", err)
		}
		obs.Logger().Info("cache snapshot written", "path", *cacheSnap)
	}
	return proc.Close()
}
