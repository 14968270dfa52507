package obs

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// ErrUsage marks flag/configuration errors. The binaries' audited
// convention: usage on stderr and exit status 2 for those, 1 for runtime
// errors and 0 for -h/-help.
var ErrUsage = errors.New("usage error")

// NewFlagSet returns the FlagSet of a binary whose usage is the synopsis
// line followed by the flag defaults; parse it with ParseFlags.
func NewFlagSet(name, synopsis string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: "+synopsis)
		fs.PrintDefaults()
	}
	return fs
}

// ParseFlags parses args into fs (which must be ContinueOnError) and
// classifies a failure: -h/-help stays flag.ErrHelp, anything else — the
// FlagSet has already printed the error and the usage — is a usage error.
func ParseFlags(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return fmt.Errorf("%w: %v", ErrUsage, err)
	}
	return err
}

// UsageErrorf prints fs's usage and returns the formatted usage error.
func UsageErrorf(fs *flag.FlagSet, format string, args ...any) error {
	fs.Usage()
	return fmt.Errorf("%w: %s", ErrUsage, fmt.Sprintf(format, args...))
}

// ExitCode is the exit status the convention assigns to a run's error.
func ExitCode(err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, ErrUsage):
		return 2
	}
	return 1
}

// Exit ends the process of the named binary with run's error: reported on
// stderr unless it is nil or -h/-help (the FlagSet already printed the
// usage), then ExitCode's status.
func Exit(name string, err error) {
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	}
	os.Exit(ExitCode(err))
}

// CLI is the shared observability configuration of the command-line
// tools; bind it to a FlagSet with BindFlags, then bracket the run with
// Start and Stop.
type CLI struct {
	MetricsAddr string
	PProf       bool
	LogLevel    string
	Progress    bool
	DumpPath    string
	TracePath   string

	// Err is where the endpoint announcement, progress lines and the
	// end-of-run summary go (default os.Stderr).
	Err io.Writer

	proc     *Process
	srv      *Server
	stopTick chan struct{}
	tickDone chan struct{}
}

// Process is the observability Install set up.
type Process struct {
	Registry  *Registry
	Tracer    *Tracer // nil with tracing off
	traceFile *os.File
}

// Install sets up a process's observability, for the daemons and
// CLI.Start alike: a text logger on logTo at logLevel (none for "" or
// "off"; an unknown level is a usage error), a fresh default registry
// and, with trace or a traceOut file to append span trees to, a tracer
// (a traceOut that cannot be created is a usage error too).
func Install(logLevel string, logTo io.Writer, trace bool, traceOut string) (*Process, error) {
	if logLevel != "" && logLevel != "off" {
		lvl, err := ParseLevel(logLevel)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrUsage, err)
		}
		SetLogger(slog.New(slog.NewTextHandler(logTo, &slog.HandlerOptions{Level: lvl})))
	}
	p := &Process{Registry: NewRegistry()}
	SetDefault(p.Registry)
	var w io.Writer
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return nil, fmt.Errorf("%w: trace out: %v", ErrUsage, err)
		}
		p.traceFile, w = f, f
	}
	if trace || traceOut != "" {
		p.Tracer = NewTracer(w)
		SetTracer(p.Tracer)
	}
	return p, nil
}

// Close closes the traceOut file, if any, once, and reports the errors
// writing and closing it.
func (p *Process) Close() error {
	f := p.traceFile
	if f == nil {
		return nil
	}
	p.traceFile = nil
	return errors.Join(p.Tracer.Err(), f.Close())
}

// BindFlags registers the observability flags on fs and returns the CLI
// that will hold their values.
func BindFlags(fs *flag.FlagSet) *CLI {
	c := &CLI{}
	fs.StringVar(&c.MetricsAddr, "metrics-addr", "",
		"serve /metrics, /metrics.json and /debug/vars on this address (e.g. :9090, :0 = any free port; empty = off)")
	fs.BoolVar(&c.PProf, "pprof", false,
		"also expose net/http/pprof under /debug/pprof/ on the -metrics-addr server")
	fs.StringVar(&c.LogLevel, "log-level", "",
		"structured run log level on stderr: debug, info, warn or error (empty = off)")
	fs.BoolVar(&c.Progress, "progress", false,
		"print live metric deltas to stderr every 2s")
	fs.StringVar(&c.DumpPath, "metrics-dump", "",
		"write a JSON metrics snapshot to this file at exit")
	fs.StringVar(&c.TracePath, "trace-out", "",
		"enable request-scoped tracing and append completed span trees as JSONL to this file (also served on /debug/requests with -metrics-addr)")
	return c
}

// WriteFileAtomic publishes data at path with mode perm via a temp file
// in path's directory and a rename, so a reader never sees a partial
// file; on failure it removes the temp file.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err = errors.Join(err, tmp.Chmod(perm), tmp.Close()); err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
	}
	return err
}

// WriteAddrFile publishes a bound address so scripts that started a
// daemon on ":0" can find the port.
func WriteAddrFile(path, addr string) error {
	return WriteFileAtomic(path, []byte(addr+"\n"), 0o644)
}

// ServeDaemon is the serving life of a daemon once it holds its listener.
// It publishes the bound address — in addrFile when set, and as the
// "NAME: listening on http://ADDR" line scripts wait for —, serves h until
// SIGTERM/SIGINT, then drains: onShutdown runs the instant draining begins
// (readiness can flip while requests still complete), in-flight requests
// get drain to finish, and a second signal kills the process. It returns
// nil after a clean drain; a server failure, or an error arriving on fatal
// (a side server's; nil = there is none), ends it undrained.
func ServeDaemon(name string, ln net.Listener, addrFile string, h http.Handler, drain time.Duration, onShutdown func(), fatal <-chan error) error {
	// Signals are caught before the address is published: a script may
	// send SIGTERM the moment it sees the listening line.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	bound := ln.Addr().String()
	if addrFile != "" {
		if err := WriteAddrFile(addrFile, bound); err != nil {
			_ = ln.Close()
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "%s: listening on http://%s\n", name, bound)

	srv := &http.Server{Handler: h}
	srv.RegisterOnShutdown(onShutdown)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case err := <-fatal:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately

	Logger().Info(name+" draining", "timeout", drain)
	fmt.Fprintf(os.Stderr, "%s: draining\n", name)
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	<-serveErr // Serve has returned http.ErrServerClosed
	Logger().Info(name + " stopped")
	return nil
}

// Enabled reports whether any observability flag was set.
func (c *CLI) Enabled() bool {
	return c.MetricsAddr != "" || c.LogLevel != "" || c.Progress || c.DumpPath != "" || c.PProf ||
		c.TracePath != ""
}

// Start installs the registry, logger and tracer (Install) and, when
// configured, starts the HTTP endpoint and the progress ticker. A no-op
// when no observability flag was set. A flag whose value cannot be used —
// a bad -log-level, an uncreatable -trace-out, a -metrics-addr that cannot
// be listened on — is a usage error.
func (c *CLI) Start() error {
	if !c.Enabled() {
		return nil
	}
	if c.Err == nil {
		c.Err = os.Stderr
	}
	var err error
	if c.proc, err = Install(c.LogLevel, c.Err, false, c.TracePath); err != nil {
		return err
	}
	if c.MetricsAddr != "" || c.PProf {
		addr := c.MetricsAddr
		if addr == "" {
			addr = ":0" // -pprof alone still wants an endpoint
		}
		srv, err := Serve(addr, c.proc.Registry, c.PProf)
		if err != nil {
			return fmt.Errorf("%w: metrics endpoint: %v", ErrUsage, err)
		}
		c.srv = srv
		fmt.Fprintf(c.Err, "[obs] serving metrics on http://%s/metrics\n", displayAddr(srv.Addr))
		Logger().Info("metrics endpoint up", "addr", srv.Addr, "pprof", c.PProf)
	}
	if c.Progress {
		c.stopTick = make(chan struct{})
		c.tickDone = make(chan struct{})
		go func() {
			defer close(c.tickDone)
			t := time.NewTicker(2 * time.Second)
			defer t.Stop()
			var prev Snapshot
			for {
				select {
				case <-t.C:
					prev = c.proc.Registry.WriteProgress(c.Err, prev)
				case <-c.stopTick:
					return
				}
			}
		}()
	}
	return nil
}

// Stop flushes the run's observability: stops the progress ticker,
// writes the -metrics-dump JSON file, prints the end-of-run summary and
// shuts the HTTP endpoint down. Safe to call when Start did nothing.
func (c *CLI) Stop() error {
	if c.proc == nil {
		return nil
	}
	if c.stopTick != nil {
		close(c.stopTick)
		<-c.tickDone
	}
	var firstErr error
	if c.DumpPath != "" {
		if err := c.dump(); err != nil {
			firstErr = err
		}
	}
	if err := c.proc.Registry.Snapshot().WriteSummary(c.Err); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := c.proc.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := c.srv.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

func (c *CLI) dump() error {
	f, err := os.Create(c.DumpPath)
	if err != nil {
		return fmt.Errorf("metrics dump: %w", err)
	}
	werr := writeSnapshotJSON(f, c.proc.Registry.Snapshot())
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("metrics dump: %w", werr)
	}
	Logger().Info("metrics dumped", "path", c.DumpPath)
	return nil
}

// writeSnapshotJSON renders a snapshot as indented JSON.
func writeSnapshotJSON(w io.Writer, s Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// displayAddr rewrites wildcard listen addresses into something a
// browser or curl accepts.
func displayAddr(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return addr
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		return "127.0.0.1:" + port
	}
	return addr
}
