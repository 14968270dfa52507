// Package smoke drives the daemons and the examples end to end: it
// builds them once and runs each as its own process over its real
// listeners, as an operator would. It holds only tests; run it with
// `go test ./internal/smoke` or `make smoke`.
package smoke

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// root is the repository root, the working directory of every binary
// the tests run: the examples find examples/specs relative to it.
const root = "../.."

// bins is the directory TestSmoke builds the binaries into.
var bins string

// build compiles the binaries the subtests run into a temporary
// directory, with one go build of the go on PATH.
func build(t *testing.T) string {
	openSources(t)
	return goBuild(t, nil, "./cmd/dtrserved", "./cmd/dtringest", "./cmd/dtradapt", "./cmd/dtrplan", "./cmd/dtrlab",
		"./examples/serve", "./examples/adapt", "./examples/replicate", "./examples/ingest",
		"./examples/quickstart", "./examples/cluster", "./examples/deadline", "./examples/reliability",
		"./examples/rebalance", "./examples/testbed")
}

// goBuild runs go build with flags on the packages into a temporary
// directory, which it returns.
func goBuild(t *testing.T, flags []string, pkgs ...string) string {
	t.Helper()
	dir := t.TempDir()
	args := append(append([]string{"build", "-o", dir + string(filepath.Separator)}, flags...), pkgs...)
	if out, err := goCmd(args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir
}

// goCmd is the go on PATH run in the repository root.
func goCmd(args ...string) *exec.Cmd {
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	return cmd
}

// openSources opens every Go source and the module files under the
// repository root: go test keys a cached result on the files the test
// itself opens, not on what a go subprocess reads, and this makes a
// change to any of the code the binaries build from re-run the test.
func openSources(t *testing.T) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		switch name := d.Name(); {
		case d.IsDir():
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "results") {
				return filepath.SkipDir
			}
		case strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go"), name == "go.mod", name == "go.sum":
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			f.Close()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// run runs the binary name to completion and returns its stdout; an exit
// status other than want fails the test with its output.
func run(t *testing.T, want int, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(bins, name), args...)
	cmd.Dir = root
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); cmd.ProcessState == nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got := cmd.ProcessState.ExitCode(); got != want {
		t.Fatalf("%s %s: exit status %d, want %d\nstdout:\n%s\nstderr:\n%s",
			name, strings.Join(args, " "), got, want, &stdout, &stderr)
	}
	return stdout.String()
}

// proc is a daemon the test started; its output is printed if the test
// fails.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  bytes.Buffer
	done chan struct{} // closed once the process has exited
	err  error         // Wait's result, set before done closes
}

// start starts the daemon name with env added to the test's environment.
// It is killed, if it still runs, when the test ends.
func start(t *testing.T, env []string, name string, args ...string) *proc {
	t.Helper()
	p := &proc{name: name, cmd: exec.Command(filepath.Join(bins, name), args...), done: make(chan struct{})}
	p.cmd.Dir, p.cmd.Env = root, append(os.Environ(), env...)
	p.cmd.Stdout, p.cmd.Stderr = &p.log, &p.log
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { p.err = p.cmd.Wait(); close(p.done) }()
	t.Cleanup(func() {
		p.kill()
		if t.Failed() {
			t.Logf("%s %s log:\n%s", name, strings.Join(args, " "), &p.log)
		}
	})
	return p
}

// kill sends SIGKILL and waits for the exit.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.done
}

// drain sends SIGTERM and requires exit status 0.
func (p *proc) drain(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("%s: SIGTERM: %v", p.name, err)
	}
	<-p.done
	if p.err != nil {
		t.Fatalf("%s did not exit cleanly on SIGTERM: %v", p.name, p.err)
	}
}

// addr waits for the daemon to publish the address file path and
// returns the address; it fails at once if the daemon exits first.
func (p *proc) addr(t *testing.T, path string) string {
	t.Helper()
	var b []byte
	poll(t, p.name+" publishes "+filepath.Base(path), func() bool {
		select {
		case <-p.done:
			t.Fatalf("%s exited during startup: %v", p.name, p.err)
		default:
		}
		var err error
		b, err = os.ReadFile(path)
		return err == nil
	})
	return strings.TrimSpace(string(b))
}

// poll calls ok every 100 ms until it holds, and fails the test if it
// does not within 10 s.
func poll(t *testing.T, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(100 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("not within 10 s: %s", what)
		}
	}
}

var client = &http.Client{Timeout: 60 * time.Second}

// fetch GETs url, or POSTs it body as JSON when body is not empty, and
// returns the answer; a non-2xx status is an error.
func fetch(url, body string) (string, error) {
	var resp *http.Response
	var err error
	if body == "" {
		resp, err = client.Get(url)
	} else {
		resp, err = client.Post(url, "application/json", strings.NewReader(body))
	}
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode/100 != 2 {
		err = fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, b)
	}
	return string(b), err
}

// call is fetch failing the test on a transport error or a non-2xx
// status.
func call(t *testing.T, url, body string) string {
	t.Helper()
	s, err := fetch(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// scrape reads the /metrics page of base into a map from series, the
// name with its labels as printed, to value. An absent series reads 0.
func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	m := map[string]float64{}
	for _, line := range strings.Split(call(t, base+"/metrics", ""), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			t.Fatalf("/metrics line %q: %v", line, err)
		}
		m[f[0]] = v
	}
	return m
}

// family sums the series of the metric name, labelled or not, and
// fails the test if there is none.
func family(t *testing.T, m map[string]float64, name string) float64 {
	t.Helper()
	sum, found := 0.0, false
	for series, v := range m {
		if series == name || strings.HasPrefix(series, name+"{") {
			sum, found = sum+v, true
		}
	}
	if !found {
		t.Fatalf("/metrics lacks %s", name)
	}
	return sum
}

// freePorts reserves n distinct ports on 127.0.0.1: it holds a listener
// on each until all are bound, then closes them.
func freePorts(t *testing.T, n int) []int {
	ports := make([]int, n)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	return ports
}

// nonEmpty returns the file path, space trimmed, and fails the test if
// that is empty.
func nonEmpty(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if s := strings.TrimSpace(string(b)); s != "" {
		return s
	}
	t.Fatalf("%s is empty or unreadable (%v)", path, err)
	return ""
}

// contains fails the test unless s, what the test names what, holds sub.
func contains(t *testing.T, what, s, sub string) {
	t.Helper()
	if !strings.Contains(s, sub) {
		t.Fatalf("%s lacks %q:\n%s", what, sub, s)
	}
}
