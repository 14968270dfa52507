package obs

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestCLIDisabledIsNoop(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	c := BindFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if c.Enabled() {
		t.Fatal("no flags set, Enabled must be false")
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if Default() != nil {
		t.Fatal("disabled CLI must not install a registry")
	}
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestCLIStartStop(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "metrics.json")
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	c := BindFlags(fs)
	if err := fs.Parse([]string{
		"-metrics-addr", "127.0.0.1:0", "-log-level", "info", "-metrics-dump", dump,
	}); err != nil {
		t.Fatal(err)
	}
	var errBuf strings.Builder
	c.Err = &errBuf
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		SetDefault(nil)
		SetLogger(nil)
	})
	if Default() == nil {
		t.Fatal("Start must install the default registry")
	}
	Default().Counter("dtr_cli_test_total").Add(5)
	done := StartSpan("solve", "k", 1)
	done()
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}

	out := errBuf.String()
	for _, want := range []string{
		"[obs] serving metrics on http://127.0.0.1:",
		"metrics endpoint up",             // slog info line
		"span done",                       // StartSpan closer logs at info
		"== metrics summary ==",           // end-of-run table
		"dtr_cli_test_total",              // nonzero counter shown
		`dtr_span_seconds{phase="solve"}`, // span histogram shown
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("CLI stderr missing %q:\n%s", want, out)
		}
	}

	raw, err := os.ReadFile(dump)
	if err != nil {
		t.Fatalf("metrics dump not written: %v", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if snap.Counters["dtr_cli_test_total"] != 5 {
		t.Fatalf("dump counters = %v", snap.Counters)
	}
}

func TestCLIBadLogLevel(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	c := BindFlags(fs)
	if err := fs.Parse([]string{"-log-level", "loud"}); err != nil {
		t.Fatal(err)
	}
	var errBuf strings.Builder
	c.Err = &errBuf
	if err := c.Start(); !errors.Is(err, ErrUsage) {
		t.Fatalf("unknown log level: Start = %v, want a usage error", err)
	}
	if Default() != nil {
		t.Fatal("a failed Start installed the default registry")
	}
}

// TestCLIStartUnusableFlagIsUsage: a -trace-out that cannot be created
// and a -metrics-addr that cannot be listened on are usage errors (exit
// 2), the same in every binary that calls Start, and a failed Start
// leaves nothing behind: no registry, logger or tracer installed, no
// trace file created and no listener bound. Each case sets the other
// flag to a usable value, so a Start that acted on it would show.
func TestCLIStartUnusableFlagIsUsage(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	free, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	freeAddr := free.Addr().String()
	free.Close()
	dir := t.TempDir()
	traceOut := filepath.Join(dir, "trace.jsonl")
	for _, args := range [][]string{
		{"-trace-out", filepath.Join(dir, "missing", "x"), "-metrics-addr", freeAddr, "-log-level", "info"},
		{"-metrics-addr", busy.Addr().String(), "-trace-out", traceOut, "-log-level", "info"},
	} {
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		c := BindFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		c.Err = io.Discard
		if err := c.Start(); !errors.Is(err, ErrUsage) || ExitCode(err) != 2 {
			t.Errorf("%v: Start = %v, want a usage error", args, err)
		}
		if Default() != nil || DefaultTracer() != nil || Logger() != discardLogger {
			t.Errorf("%v: a failed Start left the registry, tracer or logger installed", args)
		}
		if _, err := os.Stat(traceOut); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%v: a failed Start created the trace file (stat: %v)", args, err)
		}
		ln, err := net.Listen("tcp", freeAddr)
		if err != nil {
			t.Errorf("%v: a failed Start left %s bound: %v", args, freeAddr, err)
			continue
		}
		ln.Close()
	}
}

func TestParseLevel(t *testing.T) {
	for _, s := range []string{"debug", "info", "warn", "warning", "error"} {
		if _, err := ParseLevel(s); err != nil {
			t.Fatalf("ParseLevel(%q): %v", s, err)
		}
	}
	if _, err := ParseLevel("verbose"); err == nil {
		t.Fatal("want error for unknown level")
	}
}

func TestWriteSummarySuppressesZeros(t *testing.T) {
	r := NewRegistry()
	r.Counter("zero_total")
	r.Counter("live_total").Add(2)
	r.Histogram("empty_hist", nil)
	var b strings.Builder
	if err := r.Snapshot().WriteSummary(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Contains(out, "zero_total") || strings.Contains(out, "empty_hist") {
		t.Fatalf("zero metrics must be suppressed:\n%s", out)
	}
	if !strings.Contains(out, "live_total") {
		t.Fatalf("nonzero counter missing:\n%s", out)
	}

	b.Reset()
	if err := NewRegistry().Snapshot().WriteSummary(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "(no metrics recorded)") {
		t.Fatalf("empty summary marker missing:\n%s", b.String())
	}
}

func TestWriteProgressDeltas(t *testing.T) {
	r := NewRegistry()
	var b strings.Builder
	prev := r.WriteProgress(&b, Snapshot{})
	if b.Len() != 0 {
		t.Fatalf("no activity must print nothing, got %q", b.String())
	}
	r.Counter("dtr_prog_total").Add(3)
	_ = r.WriteProgress(&b, prev)
	if got := b.String(); !strings.Contains(got, "prog_total+3") {
		t.Fatalf("progress line = %q", got)
	}
}

func TestDisplayAddr(t *testing.T) {
	cases := map[string]string{
		"[::]:9090":      "127.0.0.1:9090",
		"0.0.0.0:80":     "127.0.0.1:80",
		"10.1.2.3:9090":  "10.1.2.3:9090",
		"localhost:1234": "localhost:1234",
	}
	for in, want := range cases {
		if got := displayAddr(in); got != want {
			t.Fatalf("displayAddr(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestExitCode pins the binaries' exit convention in the one place that
// now states it: -h/-help and success 0, usage errors 2, anything else 1
// — with ParseFlags and UsageErrorf producing the classes it reads.
func TestExitCode(t *testing.T) {
	newFS := func() *flag.FlagSet {
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Int("n", 0, "")
		return fs
	}
	for _, c := range []struct {
		name string
		err  error
		want int
	}{
		{"success", nil, 0},
		{"parsed", ParseFlags(newFS(), []string{"-n", "3"}), 0},
		{"help", ParseFlags(newFS(), []string{"-h"}), 0},
		{"unknown flag", ParseFlags(newFS(), []string{"-bogus"}), 2},
		{"malformed value", ParseFlags(newFS(), []string{"-n", "lots"}), 2},
		{"usage error", UsageErrorf(newFS(), "need %s", "-model"), 2},
		{"wrapped usage error", fmt.Errorf("boot: %w", UsageErrorf(newFS(), "bad")), 2},
		{"runtime error", errors.New("listen: address in use"), 1},
	} {
		if got := ExitCode(c.err); got != c.want {
			t.Errorf("%s: ExitCode(%v) = %d, want %d", c.name, c.err, got, c.want)
		}
	}
	if err := ParseFlags(newFS(), []string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h returned %v, want flag.ErrHelp", err)
	}
}

// TestServeDaemonDrainsOnSignal: the skeleton dtrserved and dtringest share
// publishes the address, serves, and on SIGTERM runs the on-shutdown hook
// and returns nil once drained.
func TestServeDaemonDrainsOnSignal(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrFile := filepath.Join(t.TempDir(), "addr")
	hooked := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, "ok") })
		done <- ServeDaemon("testd", ln, addrFile, h, 5*time.Second, func() { close(hooked) }, nil)
	}()
	// Wait on the event scripts wait on: the published address answering.
	var addr []byte
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if addr, err = os.ReadFile(addrFile); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("address never published: %v", err)
		}
	}
	resp, err := http.Get("http://" + strings.TrimSpace(string(addr)) + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeDaemon returned %v after a clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeDaemon did not return after SIGTERM")
	}
	select {
	case <-hooked:
	case <-time.After(5 * time.Second):
		t.Fatal("on-shutdown hook never ran")
	}
}

// TestWriteFileAtomic: a write publishes the bytes under the requested
// mode and leaves nothing else behind, and a failed rename — here onto
// an existing directory — leaves the directory as it found it.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	listing := func() []string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}
	for _, perm := range []os.FileMode{0o600, 0o644} {
		path := filepath.Join(dir, "out")
		if err := WriteFileAtomic(path, []byte("hello\n"), perm); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil || string(b) != "hello\n" {
			t.Fatalf("read back %q, %v", b, err)
		}
		if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != perm {
			t.Fatalf("mode %v (%v), want %v", fi.Mode().Perm(), err, perm)
		}
		if got := listing(); len(got) != 1 || got[0] != "out" {
			t.Fatalf("directory holds %v after a write, want [out]", got)
		}
	}

	busy := filepath.Join(dir, "busy")
	if err := os.Mkdir(busy, 0o755); err != nil {
		t.Fatal(err)
	}
	before := listing()
	if err := WriteFileAtomic(busy, []byte("x"), 0o644); err == nil {
		t.Fatal("renaming onto a directory succeeded")
	}
	if after := listing(); strings.Join(after, ",") != strings.Join(before, ",") {
		t.Fatalf("a failed write left %v, the directory held %v", after, before)
	}
}
