package obs

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"time"
)

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

	reg       *Registry
	srv       *Server
	stopTick  chan struct{}
	tickDone  chan struct{}
	tracer    *Tracer
	traceFile *os.File
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

// WriteAddrFile atomically publishes a bound address so scripts that
// started a daemon on ":0" can find the port (write temp + rename: a
// reader never sees a partial file).
func WriteAddrFile(path, addr string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(addr+"\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Enabled reports whether any observability flag was set.
func (c *CLI) Enabled() bool {
	return c.MetricsAddr != "" || c.LogLevel != "" || c.Progress || c.DumpPath != "" || c.PProf ||
		c.TracePath != ""
}

// Start installs the registry and logger and, when configured, starts
// the HTTP endpoint and the progress ticker. A no-op when no
// observability flag was set.
func (c *CLI) Start() error {
	if !c.Enabled() {
		return nil
	}
	if c.Err == nil {
		c.Err = os.Stderr
	}
	c.reg = NewRegistry()
	SetDefault(c.reg)
	if c.TracePath != "" {
		f, err := os.Create(c.TracePath)
		if err != nil {
			return fmt.Errorf("trace out: %w", err)
		}
		c.traceFile = f
		c.tracer = NewTracer(TracerConfig{Writer: f})
		SetTracer(c.tracer)
	}
	if c.LogLevel != "" {
		lvl, err := ParseLevel(c.LogLevel)
		if err != nil {
			return err
		}
		SetLogger(slog.New(slog.NewTextHandler(c.Err, &slog.HandlerOptions{Level: lvl})))
	}
	if c.MetricsAddr != "" || c.PProf {
		addr := c.MetricsAddr
		if addr == "" {
			addr = ":0" // -pprof alone still wants an endpoint
		}
		srv, err := Serve(addr, c.reg, c.PProf)
		if err != nil {
			return fmt.Errorf("metrics endpoint: %w", err)
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
					prev = c.reg.WriteProgress(c.Err, prev)
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
	if c.reg == nil {
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
	if err := c.reg.Snapshot().WriteSummary(c.Err); err != nil && firstErr == nil {
		firstErr = err
	}
	if c.traceFile != nil {
		if err := c.tracer.Err(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := c.traceFile.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("trace out: %w", err)
		}
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
	werr := writeSnapshotJSON(f, c.reg.Snapshot())
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
