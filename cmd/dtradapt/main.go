// Command dtradapt is the adaptation controller: it reads a delay trace
// captured by the simulator or testbed (internal/trace), fits the delay
// laws per channel with censoring-aware maximum likelihood (dist/fit),
// and re-solves the reallocation policy when the observed statistics
// drift from the model the current policy was planned against
// (internal/adapt).
//
//	dtradapt -trace run.jsonl -queues 50,25 -once
//	dtradapt -trace run.jsonl -queues 50,25 -follow
//	dtradapt -trace run.jsonl -queues 50,25 -once -server http://127.0.0.1:8080
//	dtradapt -ingest http://127.0.0.1:9120 -tenant acme -queues 50,25 -once
//
// -once ingests the whole trace, fits, replans once and prints the
// decision as JSON. -follow tails the trace like `tail -f`, bootstraps
// a model as soon as every channel has enough observations, and then
// emits one JSON decision line per detected drift until interrupted.
// With -server, fitting and planning go through a dtrserved instance
// (POST /v1/fit and /v1/optimize); otherwise both run in-process.
//
// With -ingest (instead of -trace), the controller polls a dtringest
// daemon's /v1/snapshot for one tenant's windowed sufficient statistics
// and fits on the bounded-memory closed-form/sketch paths — no raw
// events cross the wire. -once fetches one snapshot and replans;
// -follow polls every -poll interval, bootstrapping and drift-checking
// each snapshot.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dtr/dist/fit"
	"dtr/internal/adapt"
	"dtr/internal/obs"
	"dtr/internal/par"
	"dtr/internal/trace"
)

func main() {
	obs.Exit("dtradapt", run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) error {
	fs := obs.NewFlagSet("dtradapt", "dtradapt <-trace run.jsonl | -ingest URL -tenant T> -queues 50,25 <-once|-follow> [flags]")
	tracePath := fs.String("trace", "", "JSONL trace to read (this or -ingest is required)")
	ingestURL := fs.String("ingest", "", "dtringest base URL; statistics snapshots replace the raw trace")
	tenant := fs.String("tenant", "", "tenant to poll from the ingest daemon (required with -ingest)")
	queuesFlag := fs.String("queues", "", "initial allocation, comma-separated, e.g. 50,25 (required)")
	objective := fs.String("objective", "mean", "replanning objective: mean, qos or reliability")
	deadline := fs.Float64("deadline", 0, "QoS deadline (required with -objective qos)")
	once := fs.Bool("once", false, "ingest the whole trace, fit and replan once, print the decision")
	follow := fs.Bool("follow", false, "tail the trace and emit a decision on bootstrap and every drift")
	server := fs.String("server", "", "dtrserved base URL; fits and plans go through /v1/fit and /v1/optimize")
	window := fs.Int("window", 8192, "sliding window size in events")
	minObs := fs.Int("min-obs", fit.DefaultMinObs, "exact observations a channel needs before its fit is trusted")
	checkEvery := fs.Int("check-every", 256, "events between drift checks (with -follow)")
	driftKS := fs.Float64("drift-ks", 0.15, "KS-distance drift threshold")
	driftMean := fs.Float64("drift-relmean", 0.25, "relative mean-shift drift threshold")
	familiesFlag := fs.String("families", "", "comma-separated candidate families (default: all)")
	gridN := fs.Int("grid", 0, "lattice points for the in-process solver (0 = default)")
	poll := fs.Duration("poll", 500*time.Millisecond, "tail poll interval (with -follow)")
	specOut := fs.String("spec-out", "", "write the latest fitted spec JSON to this file (atomic)")
	policyOut := fs.String("policy-out", "", "write the latest policy string to this file (atomic)")
	workers := par.BindFlag(fs)
	obsCfg := obs.BindFlags(fs)
	if err := obs.ParseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return obs.UsageErrorf(fs, "unexpected argument %q", fs.Arg(0))
	}
	if err := workers.Validate(); err != nil {
		return obs.UsageErrorf(fs, "%v", err)
	}
	if *queuesFlag == "" {
		return obs.UsageErrorf(fs, "-queues is required")
	}
	if (*tracePath == "") == (*ingestURL == "") {
		return obs.UsageErrorf(fs, "exactly one of -trace or -ingest")
	}
	if *ingestURL != "" && *tenant == "" {
		return obs.UsageErrorf(fs, "-ingest needs -tenant")
	}
	if *tenant != "" && *ingestURL == "" {
		return obs.UsageErrorf(fs, "-tenant only applies with -ingest")
	}
	if *once == *follow {
		return obs.UsageErrorf(fs, "exactly one of -once or -follow")
	}
	queues, err := parseQueues(*queuesFlag)
	if err != nil {
		return obs.UsageErrorf(fs, "%v", err)
	}
	var fams []fit.Family
	if *familiesFlag != "" {
		fams, err = fit.ParseFamilies(strings.Split(*familiesFlag, ","))
		if err != nil {
			return obs.UsageErrorf(fs, "%v", err)
		}
	}

	cfg := adapt.Config{
		Queues: queues, Objective: *objective, Deadline: *deadline,
		Window: *window, MinObs: *minObs, CheckEvery: *checkEvery,
		DriftKS: *driftKS, DriftRelMean: *driftMean,
		Families: fams, GridN: *gridN, Workers: workers.N,
	}
	if *server != "" {
		cfg.Planner = &adapt.HTTP{BaseURL: strings.TrimRight(*server, "/"),
			Objective: *objective, Deadline: *deadline}
	}
	if *once {
		// Batch mode never drift-checks mid-ingest; one forced refit at
		// the end does all the work.
		cfg.CheckEvery = 1 << 30
	}
	ctrl, err := adapt.New(cfg)
	if err != nil {
		return obs.UsageErrorf(fs, "%v", err)
	}
	if err := obsCfg.Start(); err != nil {
		return err
	}
	sink := &decisionSink{out: out, specOut: *specOut, policyOut: *policyOut}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	switch {
	case *ingestURL != "" && *once:
		src := &adapt.IngestSource{BaseURL: strings.TrimRight(*ingestURL, "/"), Tenant: *tenant}
		err = runOnceIngest(ctx, ctrl, src, sink)
	case *ingestURL != "":
		src := &adapt.IngestSource{BaseURL: strings.TrimRight(*ingestURL, "/"), Tenant: *tenant}
		err = runFollowIngest(ctx, ctrl, src, *poll, sink)
	case *once:
		err = runOnce(ctx, ctrl, *tracePath, sink)
	default:
		err = runFollow(ctx, ctrl, *tracePath, *poll, sink)
	}
	if oerr := obsCfg.Stop(); oerr != nil && err == nil {
		err = oerr
	}
	return err
}

// parseQueues parses "50,25" into a non-negative allocation.
func parseQueues(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		q, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || q < 0 {
			return nil, fmt.Errorf("-queues: %q is not a non-negative integer", part)
		}
		out = append(out, q)
	}
	return out, nil
}

// decisionSink renders decisions: JSON on out, plus optional atomic
// spec/policy files for scripts.
type decisionSink struct {
	out                io.Writer
	specOut, policyOut string
}

// emit writes one decision. indent selects pretty (batch) vs line
// (follow) rendering.
func (s *decisionSink) emit(d *adapt.Decision, indent bool) error {
	var b []byte
	var err error
	if indent {
		b, err = json.MarshalIndent(d, "", "  ")
	} else {
		b, err = json.Marshal(d)
	}
	if err != nil {
		return fmt.Errorf("encode decision: %w", err)
	}
	if _, err := fmt.Fprintln(s.out, string(b)); err != nil {
		return err
	}
	if s.specOut != "" {
		spec, err := json.MarshalIndent(d.Spec, "", "  ")
		if err != nil {
			return fmt.Errorf("encode spec: %w", err)
		}
		if err := obs.WriteFileAtomic(s.specOut, append(spec, '\n'), 0o644); err != nil {
			return err
		}
	}
	if s.policyOut != "" {
		if err := obs.WriteFileAtomic(s.policyOut, []byte(d.PolicyString+"\n"), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// runOnce ingests the whole trace and performs one forced fit + replan.
func runOnce(ctx context.Context, ctrl *adapt.Controller, path string, sink *decisionSink) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	evs, err := trace.ReadAll(f)
	if err != nil {
		return err
	}
	for _, ev := range evs {
		if _, err := ctrl.Observe(ctx, ev); err != nil {
			return err
		}
	}
	d, err := ctrl.Refit(ctx)
	if err != nil {
		return err
	}
	return sink.emit(d, true)
}

// runOnceIngest fetches one statistics snapshot and performs one forced
// fit + replan on the bounded-memory paths.
func runOnceIngest(ctx context.Context, ctrl *adapt.Controller, src *adapt.IngestSource, sink *decisionSink) error {
	snap, err := src.Snapshot(ctx)
	if err != nil {
		return err
	}
	d, err := ctrl.RefitStats(ctx, snap.Stats)
	if err != nil {
		return err
	}
	return sink.emit(d, true)
}

// runFollowIngest polls snapshots until the context is cancelled. Fetch
// failures are transient (the daemon may be restarting, the tenant not
// yet seen): log and keep polling, like runFollow's fit errors.
func runFollowIngest(ctx context.Context, ctrl *adapt.Controller, src *adapt.IngestSource, poll time.Duration, sink *decisionSink) error {
	for {
		snap, err := src.Snapshot(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			fmt.Fprintf(os.Stderr, "dtradapt: %s: %v\n", src.Tenant, err)
		} else {
			d, oerr := ctrl.ObserveStats(ctx, snap.Stats)
			if oerr != nil {
				fmt.Fprintf(os.Stderr, "dtradapt: %s: %v\n", src.Tenant, oerr)
			} else if d != nil {
				if eerr := sink.emit(d, false); eerr != nil {
					return eerr
				}
			}
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(poll):
		}
	}
}

// runFollow tails the trace until the context is cancelled, feeding
// complete lines to the controller and emitting every decision. The
// tail reader holds a torn final line (a writer mid-append) until its
// newline lands, so partial writes never surface as parse errors.
func runFollow(ctx context.Context, ctrl *adapt.Controller, path string, poll time.Duration, sink *decisionSink) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := trace.NewTailReader(f)
	for {
		ev, err := r.Next()
		switch {
		case err == nil:
			d, oerr := ctrl.Observe(ctx, ev)
			if oerr != nil {
				// A fit that cannot converge on this window is transient:
				// log and keep tailing. Malformed events are fatal (the
				// reader already returned them as errors above).
				fmt.Fprintf(os.Stderr, "dtradapt: %s: %v\n", path, oerr)
				continue
			}
			if d != nil {
				if eerr := sink.emit(d, false); eerr != nil {
					return eerr
				}
			}
		case errors.Is(err, io.EOF):
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(poll):
			}
		default:
			return fmt.Errorf("%s: %w", path, err)
		}
	}
}
