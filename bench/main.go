// Command bench is the repository's benchmark: five named workloads
// driven through the real request stack in-process over loopback TCP,
// seven end-to-end metrics per workload, and a per-layer ledger measured
// from outside the layers. BENCHMARK.json at the repository root
// declares it; README.md in this directory documents every name.
//
//	go run ./bench -workload plan_cold -seed 1              # end-to-end metrics
//	go run ./bench -workload plan_cold -seed 1 -trace 1     # per-layer metrics
//	go run ./bench -all -seed 1 -runs 5 -out a.json         # every workload, 5 runs each
//	go run ./bench -compare a.json b.json                   # two run sets
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workloads lists the benchmark's traffic mixes in reporting order.
var workloads = []workload{
	{name: "plan_cold", clients: 2, setup: setupPlanCold},
	{name: "plan_fanout", clients: 2, setup: setupPlanFanout},
	{name: "plan_warm", clients: 1, procs: 1, window: 64, setup: setupPlanWarm},
	{name: "lab_sweep", clients: 1, setup: setupLabSweep},
	{name: "observe_refit", clients: refitClients, setup: setupObserveRefit},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: plan_cold, plan_fanout, plan_warm, lab_sweep or observe_refit")
	seed := fs.Uint64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 20, "length of the timed region (BENCHMARK.json's run_seconds)")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics with tracing off; 1 = traced run reporting the per-layer metrics")
	all := fs.Bool("all", false, "run every workload in the -trace mode, each run in a fresh process")
	runs := fs.Int("runs", 1, "with -all: runs per workload; run k uses seed+k")
	out := fs.String("out", "", "write the run document here (default bench/out/<workload>-trace<0|1>.json; with -all, bench/out/all.json)")
	compare := fs.Bool("compare", false, "compare two -all documents given as arguments: bench -compare a.json b.json")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: bench -workload NAME [-seed N] [-seconds S] [-trace 0|1] | -all [-runs N] [-trace 0|1] [-out FILE] | -compare A B")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || *runs < 1 {
		return fmt.Errorf("-seconds must be positive, -trace 0 or 1, -runs at least 1")
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two documents, got %d arguments", fs.NArg())
		}
		return compareDocs(fs.Arg(0), fs.Arg(1), stdout)
	case fs.NArg() != 0:
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case *all:
		if *out == "" {
			*out = filepath.Join(outDir, "all.json")
		}
		return runAll(*seed, *seconds, *runs, *trace, *out, stdout)
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *out == "" {
		*out = filepath.Join(outDir, fmt.Sprintf("%s-trace%d.json", w.name, *trace))
	}
	doc, err := runWorkload(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, fullProfile, outDir)
	if err != nil {
		return err
	}
	if err := writeJSON(*out, doc); err != nil {
		return err
	}
	printTable(stdout, doc)
	line, err := json.Marshal(doc.Result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// outDir receives run documents and span files; .gitignore names it.
const outDir = "bench/out"

// result is the object the last line of standard output carries.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runDoc is the document one run writes: the result plus everything
// needed to interpret and reproduce it.
type runDoc struct {
	Schema     string     `json:"schema"`
	Workload   string     `json:"workload"`
	Traced     bool       `json:"traced"`
	Provenance provenance `json:"provenance"`
	Result     result     `json:"result"`
	// FailShare is failed ÷ attempted; Failure quotes the first failure.
	FailShare float64 `json:"fail_share"`
	Failure   string  `json:"failure,omitempty"`
	// Samples is the number of operations behind the latency metrics and
	// TailPercentile the percentile latency_tail_ms stands for.
	Samples        int     `json:"samples"`
	TailPercentile float64 `json:"tail_percentile"`
	WallS          float64 `json:"wall_s"`
	// A windowed pass (see windowStat) was cut into Windows windows of
	// WindowOps operations, and its time metrics are medians over
	// QuietWindows of them; WindowP50MS is each window's median latency,
	// in order.
	Windows      int       `json:"windows,omitempty"`
	QuietWindows int       `json:"quiet_windows,omitempty"`
	WindowOps    int       `json:"window_ops,omitempty"`
	WindowP50MS  []float64 `json:"window_p50_ms,omitempty"`
	// Host is present for a probed pass (see probe.go): its four time
	// metrics are the measured ones scaled by Host.Factor.
	Host    *hostDoc  `json:"host,omitempty"`
	SetupsS []float64 `json:"setups_s,omitempty"`
	// Ledger and Reconcile are present in traced runs.
	Ledger    map[string]layerTime `json:"ledger,omitempty"`
	Reconcile *reconcileDoc        `json:"reconcile,omitempty"`
	SpanFile  string               `json:"span_file,omitempty"`
}

// hostDoc is what the probe saw: Probes samples with a median of LevelUS,
// QuietUS when the host left it alone, and Factor = QuietUS ÷ LevelUS.
type hostDoc struct {
	Probes  int     `json:"probes"`
	LevelUS float64 `json:"probe_level_us"`
	QuietUS float64 `json:"probe_quiet_us"`
	Factor  float64 `json:"factor"`
}

type reconcileDoc struct {
	HTTPMedianMS   float64 `json:"serve_http_median_ms"`
	LeavesMedianMS float64 `json:"replay_leaves_median_ms"`
	UnattributedMS float64 `json:"unattributed_median_ms"`
	// GapShare is |serve.http − Σ leaves| ÷ serve.http on the medians.
	GapShare float64 `json:"gap_share"`
}

const docSchema = "dtr.bench.v2"

// runWorkload performs one complete run of w: repeated set-up, then the
// untraced timed loop (or the traced passes), returning its document.
func runWorkload(w workload, seed uint64, limit time.Duration, traced bool, p profile, spanDir string) (*runDoc, error) {
	doc := &runDoc{Schema: docSchema, Workload: w.name, Traced: traced}
	doc.Provenance = gatherProvenance(seed, p)
	if w.procs > 0 {
		doc.Provenance.GoMaxProcs = w.procs
	}

	if traced {
		return doc, runTraced(w, seed, p, spanDir, doc)
	}

	// Set-up is performed several times and reported as the median; the
	// last instance is the one measured.
	var inst *instance
	for i := 0; i < p.setups; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(seed, p); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		doc.SetupsS = append(doc.SetupsS, time.Since(t0).Seconds())
	}
	defer inst.close()
	doc.Provenance.InputSHA256, doc.Provenance.Counts = inst.inputSHA, inst.counts

	// A workload that is not reported by windows is probed instead.
	var probe *hostProbe
	if w.window == 0 {
		var err error
		if probe, err = newProbe(p); err != nil {
			return nil, fmt.Errorf("%s probe: %w", w.name, err)
		}
	}
	restore := w.pinProcs()
	res := runLoop(inst, w.clients, limit, 0, w.window, probe, nil)
	restore()
	if res.attempted == 0 {
		return nil, fmt.Errorf("%s: no operation completed", w.name)
	}
	doc.fill(res)
	if h := res.host; h.probes > 0 {
		doc.Host = &hostDoc{Probes: h.probes, LevelUS: us(h.level), QuietUS: us(h.quiet), Factor: h.factor()}
	}
	if doc.Windows = len(res.windows); doc.Windows > 0 {
		doc.QuietWindows, doc.WindowOps = len(quietWindows(res.windows)), w.window
		doc.TailPercentile = windowTailPct
		for _, ws := range res.windows {
			doc.WindowP50MS = append(doc.WindowP50MS, ms(ws.p50))
		}
	}
	doc.Result.Metrics = endToEnd(res, median(doc.SetupsS))
	return doc, nil
}

// pinProcs sets the workload's GOMAXPROCS, if it has one, for a pass of
// the loop; the returned function restores the previous value. Set-up,
// which computes, keeps every core.
func (w workload) pinProcs() (restore func()) {
	if w.procs == 0 {
		return func() {}
	}
	prev := runtime.GOMAXPROCS(w.procs)
	return func() { runtime.GOMAXPROCS(prev) }
}

// fill records what every run reports regardless of mode.
func (d *runDoc) fill(res loopResult) {
	d.Result.Correct = res.failed == 0
	d.Result.Attempted, d.Result.Failed = res.attempted, res.failed
	d.FailShare = float64(res.failed) / float64(res.attempted)
	d.Failure = failure(res)
	d.Samples = len(res.lat)
	_, d.TailPercentile = tailIndex(len(res.lat))
	d.WallS = res.wall.Seconds()
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printTable prints every metric by name with its unit.
func printTable(w io.Writer, d *runDoc) {
	mode := "end-to-end, tracing off"
	if d.Traced {
		mode = "per-layer, traced"
	}
	fmt.Fprintf(w, "%s seed %d (%s): %d operations, %d failed, wall %.2f s\n",
		d.Workload, d.Provenance.Seed, mode, d.Result.Attempted, d.Result.Failed, d.WallS)
	if d.Failure != "" {
		fmt.Fprintf(w, "  FAILED: %s\n", d.Failure)
	}
	switch {
	case d.Traced:
	case d.Windows > 0:
		fmt.Fprintf(w, "  %d samples in %d windows of %d; time metrics are medians over the %d quiet windows, the tail their %gth percentile\n", d.Samples, d.Windows, d.WindowOps, d.QuietWindows, d.TailPercentile)
	default:
		fmt.Fprintf(w, "  latency over %d samples; tail is the %.2fth percentile\n", d.Samples, d.TailPercentile)
	}
	if h := d.Host; h != nil {
		fmt.Fprintf(w, "  %d probes took %.0f us in the median, %.0f us on the quiet host; time metrics are scaled by %.3f\n", h.Probes, h.LevelUS, h.QuietUS, h.Factor)
	}
	names := make([]string, 0, len(d.Result.Metrics))
	for n := range d.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := d.Result.Metrics[n]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	if d.Reconcile != nil {
		fmt.Fprintf(w, "  reconciliation: serve.http median %.3f ms, Σ replay leaves %.3f ms, gap %.1f%%\n",
			d.Reconcile.HTTPMedianMS, d.Reconcile.LeavesMedianMS, 100*d.Reconcile.GapShare)
	}
}
