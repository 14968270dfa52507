// Command dtringest is the streaming observation ingest daemon: many
// emitters (simulators, testbeds, production probes) send delay,
// failure and transfer observations over UDP and HTTP; the daemon
// folds them — keyed by tenant — into bounded-memory windowed
// sufficient statistics (dist/fit.StatsSet) and serves snapshots that
// drive the §III-B censored-MLE refit downstream:
//
//	dtringest -http 127.0.0.1:9120 -udp 127.0.0.1:9125
//	echo "acme/service.0 1.52" | nc -u -w0 127.0.0.1 9125
//	curl -s 'localhost:9120/v1/snapshot?tenant=acme'
//	dtradapt -ingest http://127.0.0.1:9120 -tenant acme -queues 50,25 -once
//
// Wire formats (README "Ingest", DESIGN.md §11): the compact line
// protocol `tenant/channel value [c]` over UDP datagrams and HTTP
// batches, plus trace.v1 JSONL events (POST /v1/ingest?tenant=...) for
// compatibility with existing captures.
//
// Endpoints: POST /v1/ingest, GET /v1/snapshot?tenant=, GET /healthz
// (503 once draining). Telemetry rides on the same listener: /metrics,
// /metrics.json, /debug/vars, /debug/requests and — with -pprof —
// /debug/pprof/.
//
// SIGTERM/SIGINT drain gracefully: /healthz flips to 503, the UDP and
// HTTP listeners close, and the process exits 0. Aggregated statistics
// are in-memory only; consumers poll snapshots, so a restart costs at
// most one ring of windows.
package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"dtr/internal/ingest"
	"dtr/internal/obs"
)

func main() {
	obs.Exit("dtringest", run(os.Args[1:]))
}

func run(args []string) error {
	fs := obs.NewFlagSet("dtringest", "dtringest [-http :9120] [-udp :9125] [-window 1m] [-windows 5] ...")
	httpAddr := fs.String("http", "127.0.0.1:9120", "HTTP listen address (\":0\" picks a free port)")
	udpAddr := fs.String("udp", "127.0.0.1:9125", "UDP listen address for line-protocol datagrams (\"\" disables UDP)")
	addrFile := fs.String("addr-file", "", "write the bound HTTP address to this file once listening (for scripts driving \":0\")")
	udpAddrFile := fs.String("udp-addr-file", "", "write the bound UDP address to this file once listening")
	window := fs.Duration("window", ingest.DefaultWindow, "one aggregation window's span")
	windows := fs.Int("windows", ingest.DefaultWindows, "ring length: how many windows a snapshot covers")
	buckets := fs.Int("buckets", 0, "sketch buckets per channel (0 = dist/fit default)")
	maxChannels := fs.Int("max-channels", ingest.DefaultMaxChannels, "cap on live (tenant, channel) pairs; observations beyond it are dropped")
	maxServers := fs.Int("max-servers", ingest.DefaultMaxServers, "cap on server indices an observation may name; events beyond it are dropped")
	maxTenants := fs.Int("max-tenants", ingest.DefaultMaxTenants, "cap on live tenants; observations for new tenants beyond it are dropped")
	maxBody := fs.Int64("max-body", 4<<20, "HTTP ingest batch size cap in bytes; beyond it requests get 413")
	sweep := fs.Duration("sweep", 0, "maintenance sweep interval: stale-channel gauges, idle-tenant eviction (0 = one window)")
	drain := fs.Duration("drain-timeout", 10*time.Second, "how long SIGTERM waits for in-flight requests before exiting")
	withPProf := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the HTTP listener")
	logLevel := fs.String("log-level", "info", "structured log level on stderr: debug, info, warn, error or off")
	withTrace := fs.Bool("trace", true, "trace snapshot requests: span trees on /debug/requests, W3C traceparent in and out")
	if err := obs.ParseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return obs.UsageErrorf(fs, "unexpected argument %q", fs.Arg(0))
	}
	if *window <= 0 || *windows <= 0 || *drain <= 0 {
		return obs.UsageErrorf(fs, "-window, -windows and -drain-timeout must be positive")
	}

	// One registry for the whole process: the ingest counters plus the
	// trace-layer handles bind to it via SetDefault.
	proc, err := obs.Install(*logLevel, os.Stderr, *withTrace, "")
	if err != nil {
		return err
	}

	agg := ingest.New(ingest.Config{
		Window: *window, Windows: *windows,
		Buckets: *buckets, MaxChannels: *maxChannels,
		MaxServers: *maxServers, MaxTenants: *maxTenants,
	})
	srv := ingest.NewServer(agg, proc.Tracer, *maxBody)
	mux := http.NewServeMux()
	srv.Register(mux)
	obs.Register(mux, proc.Registry, *withPProf)

	ln, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		return fmt.Errorf("listen http %s: %w", *httpAddr, err)
	}
	// The UDP listener and the sweeper live until draining begins: the
	// on-shutdown hook cancels them as /healthz flips to 503.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	udpErr := make(chan error, 1)
	if *udpAddr != "" {
		conn, err := net.ListenPacket("udp", *udpAddr)
		if err != nil {
			_ = ln.Close()
			return fmt.Errorf("listen udp %s: %w", *udpAddr, err)
		}
		if *udpAddrFile != "" {
			if err := obs.WriteAddrFile(*udpAddrFile, conn.LocalAddr().String()); err != nil {
				_ = ln.Close()
				_ = conn.Close()
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "dtringest: udp on %s\n", conn.LocalAddr())
		go func() {
			if err := srv.ServeUDP(ctx, conn); err != nil {
				udpErr <- err
			}
		}()
	}
	go srv.RunSweeper(ctx, *sweep)
	obs.Logger().Info("dtringest up", "http", ln.Addr().String(), "udp", *udpAddr,
		"window", *window, "windows", *windows)

	return obs.ServeDaemon("dtringest", ln, *addrFile, mux, *drain, func() {
		srv.StartDrain()
		cancel()
	}, udpErr)
}
