// Command dtrload is the open-loop load generator for dtrserved: it
// replays a verb mix against a running instance at one or more fixed
// request rates, reports p50/p99/p999 latency and error/rejection rates
// per (rate, verb), checks them against declared SLOs and writes the
// whole run as a BENCH_serve.json document.
//
//	dtrserved -addr :8080 &
//	dtrload -addr http://127.0.0.1:8080 -spec examples/specs/testbed.json \
//	        -verbs optimize,metrics -rps 2,8 -duration 5s -out BENCH_serve.json
//
// The loop is open (requests launch on schedule regardless of
// completions), so saturation shows up as latency growth and 429/504
// rejections rather than a self-throttling benchmark. Exit status: 0 on
// a clean run, 1 when a configured SLO failed, 2 on usage errors.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dtr/internal/load"
	"dtr/internal/obs"
)

// errSLO marks a completed run that failed its SLO check (exit 1, after
// the report was written).
var errSLO = errors.New("SLO check failed")

func main() {
	obs.Exit("dtrload", run(os.Args[1:], os.Stdout))
}

func run(args []string, out *os.File) error {
	fs := obs.NewFlagSet("dtrload", "dtrload -addr http://HOST:PORT -spec system.json [-verbs v1,v2] [-rps r1,r2] ...")
	addr := fs.String("addr", "", "dtrserved base URL(s), comma-separated for a sharded fleet, e.g. http://127.0.0.1:8080 (required)")
	specPath := fs.String("spec", "", "path to the JSON system specification every request carries (required)")
	verbsFlag := fs.String("verbs", "optimize,metrics", "comma-separated planning verbs to mix, round-robin")
	rpsFlag := fs.String("rps", "2,8", "comma-separated offered request rates; each runs for -duration")
	duration := fs.Duration("duration", 5*time.Second, "wall-clock length of each rate level")
	grid := fs.Int("grid", 0, "lattice points for the analytic verbs (0 = server default)")
	policy := fs.String("policy", "", "policy for metrics/simulate/bounds/cdf, e.g. \"0>1:26\" (empty = no reallocation)")
	objective := fs.String("objective", "reliability", "optimize objective: mean, qos or reliability")
	deadline := fs.Float64("deadline", 0, "deadline for qos objectives and metrics")
	reps := fs.Int("reps", 0, "simulate replications (0 = server default)")
	points := fs.Int("points", 0, "cdf sample points (0 = server default)")
	variants := fs.Int("variants", 1, "distinct cache keys to spread requests over (1 = fully cached regime)")
	reqTimeout := fs.Duration("timeout", 30*time.Second, "per-request client timeout")
	outPath := fs.String("out", "BENCH_serve.json", "write the report JSON here (\"-\" = stdout)")
	sloP99 := fs.Float64("slo-p99-ms", 0, "fail the run when any verb's p99 exceeds this many milliseconds (0 = off)")
	sloErr := fs.Float64("slo-error-rate", 0, "fail the run when any verb's 5xx+transport fraction exceeds this (0 = off)")
	sloRej := fs.Float64("slo-reject-rate", 0, "fail the run when any verb's 429+504 fraction exceeds this (0 = off)")
	if err := obs.ParseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return obs.UsageErrorf(fs, "unexpected argument %q", fs.Arg(0))
	}
	if *addr == "" || *specPath == "" {
		return obs.UsageErrorf(fs, "-addr and -spec are required")
	}
	spec, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	if !json.Valid(spec) {
		return fmt.Errorf("%w: %s is not valid JSON", obs.ErrUsage, *specPath)
	}
	rps, err := parseRates(*rpsFlag)
	if err != nil {
		return fmt.Errorf("%w: %v", obs.ErrUsage, err)
	}
	verbs := splitList(*verbsFlag)
	if len(verbs) == 0 {
		return fmt.Errorf("%w: -verbs must name at least one verb", obs.ErrUsage)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	var targets []string
	for _, a := range splitList(*addr) {
		targets = append(targets, strings.TrimRight(a, "/"))
	}

	rep, err := load.Run(ctx, load.Config{
		Targets:   targets,
		Spec:      spec,
		Verbs:     verbs,
		RPS:       rps,
		Duration:  *duration,
		Grid:      *grid,
		Policy:    *policy,
		Objective: *objective,
		Deadline:  *deadline,
		Reps:      *reps,
		Points:    *points,
		Variants:  *variants,
		Client:    httpClient(*reqTimeout),
		SLO:       load.SLO{P99Ms: *sloP99, MaxErrorRate: *sloErr, MaxRejectRate: *sloRej},
	})
	if err != nil {
		return err
	}

	if err := writeReport(*outPath, rep, out); err != nil {
		return err
	}
	printSummary(os.Stderr, rep)
	if !rep.SLOPass {
		return errSLO
	}
	return nil
}

func httpClient(timeout time.Duration) *http.Client {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	return &http.Client{Timeout: timeout}
}

func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, part := range splitList(s) {
		r, err := strconv.ParseFloat(part, 64)
		if err != nil || r <= 0 {
			return nil, fmt.Errorf("bad rate %q (want a positive number)", part)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-rps must list at least one rate")
	}
	return out, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func writeReport(path string, rep *load.Report, stdout *os.File) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err := stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func printSummary(w *os.File, rep *load.Report) {
	for _, lvl := range rep.Levels {
		for _, vs := range lvl.Verbs {
			verdict := "ok"
			if !vs.SLOPass {
				verdict = "SLO FAIL"
			}
			fmt.Fprintf(w, "dtrload: %6.1f rps %-9s n=%-5d p50=%.1fms p99=%.1fms p999=%.1fms err=%.2f%% rej=%.2f%% %s\n",
				lvl.RPS, vs.Verb, vs.Requests, vs.P50Ms, vs.P99Ms, vs.P999Ms,
				100*vs.ErrorRate, 100*vs.RejectRate, verdict)
		}
		if f := lvl.Fleet; f != nil {
			fmt.Fprintf(w, "dtrload: %6.1f rps fleet     shards=%d computes=%d hits=%d misses=%d forwarded=%d hitRate=%.1f%%\n",
				lvl.RPS, f.Targets, f.Computes, f.CacheHits, f.CacheMisses, f.Forwarded, 100*f.CacheHitRate)
		}
	}
}
