// Command dtrplan makes task-reallocation decisions for a DCS described
// by a JSON specification (see package modelspec):
//
//	dtrplan -model system.json optimize -objective mean
//	dtrplan -model system.json optimize -objective qos -deadline 180
//	dtrplan -model system.json optimize -explain plan.json -probe
//	dtrplan -model system.json metrics  -policy "0>1:26" -deadline 180
//	dtrplan -model system.json simulate -policy "0>1:26" -reps 10000
//	dtrplan -model system.json bounds   -policy "0>2:4,1>2:3" -deadline 40
//	dtrplan -model system.json cdf      -policy "0>1:26" -points 20
//
// Policies are written as comma-separated "src>dst:count" shipments
// (server indices are 0-based). metrics and cdf are exact analytic
// answers for any policy that sends no server more than one group —
// every two-server policy; the exact optimizer is two-server, larger
// systems plan with Algorithm 1, and policies that converge several
// groups on one server have simulation and the batch-arrival bounds.
//
// A subcommand is a planning verb of internal/serve run in this process:
// the flags fill a serve.Request, serve.Exec validates and answers it as
// dtrserved's POST /v1/<verb> does — minus the shared daemon's resource
// caps — and this file renders the typed answer as text. What a field
// means and what its zero value stands for is documented on serve.Request.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"dtr"
	"dtr/internal/obs"
	"dtr/internal/par"
	"dtr/internal/serve"
)

func main() {
	obs.Exit("dtrplan", run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) error {
	fs := obs.NewFlagSet("dtrplan", "dtrplan -model system.json <optimize|metrics|simulate|bounds|cdf> [flags]")
	modelPath := fs.String("model", "", "path to the JSON system specification (required)")
	req := &serve.Request{}
	fs.IntVar(&req.Grid, "grid", 0, "lattice points for the analytic solvers (0 = default)")
	workers := par.BindFlag(fs)
	obsCfg := obs.BindFlags(fs)
	if err := obs.ParseFlags(fs, args); err != nil {
		return err
	}
	if err := workers.Validate(); err != nil {
		return obs.UsageErrorf(fs, "%v", err)
	}
	if *modelPath == "" || fs.NArg() < 1 {
		return obs.UsageErrorf(fs, "need -model and a subcommand")
	}
	if err := obsCfg.Start(); err != nil {
		return err
	}

	err := plan(*modelPath, req, workers.N, fs.Arg(0), fs.Args()[1:], out)
	if oerr := obsCfg.Stop(); oerr != nil && err == nil {
		err = oerr
	}
	return err
}

// plan binds the subcommand's flags onto req, answers it and renders the
// answer.
func plan(modelPath string, req *serve.Request, workers int, sub string, rest []string, out io.Writer) error {
	fs := flag.NewFlagSet(sub, flag.ContinueOnError)
	verb := sub
	var explainPath string
	policyFlag := func() {
		fs.StringVar(&req.Policy, "policy", "", "shipments, e.g. \"0>1:26\" or \"0>2:4,1>2:3\"")
	}
	switch sub {
	case "optimize":
		fs.StringVar(&req.Objective, "objective", "", "mean (the default), qos or reliability")
		fs.Float64Var(&req.Deadline, "deadline", 0, "deadline for -objective qos")
		fs.StringVar(&explainPath, "explain", "", "write the explain artifact (winning policy + solver diagnostics, JSON) to this path; \"-\" emits it on stdout instead of the summary")
		fs.BoolVar(&req.Probe, "probe", false, "with -explain: estimate grid-truncation error via a half-resolution probe (two-server systems)")
		req.Replication = &serve.ReplRequest{}
		fs.IntVar(&req.Replication.MaxFactor, "replicate-max", 1, "search replication factors up to this cap (each task may run as up to k cancel-on-first-complete copies; 1 = no replication)")
		fs.IntVar(&req.Replication.Budget, "replicate-budget", 0, "cap on total extra copies across the plan (0 = unconstrained; needs -replicate-max > 1)")
	case "metrics", "bounds":
		policyFlag()
		fs.Float64Var(&req.Deadline, "deadline", 0, "QoS deadline (0 = skip)")
	case "simulate":
		policyFlag()
		fs.IntVar(&req.Reps, "reps", 0, "Monte-Carlo replications (0 = default)")
		fs.Float64Var(&req.Deadline, "deadline", 0, "QoS deadline (0 = skip)")
		fs.Uint64Var(&req.Seed, "seed", 0, "random seed (0 = default)")
	case "cdf":
		policyFlag()
		fs.IntVar(&req.Points, "points", 0, "number of curve points to print (0 = default)")
		fs.Float64Var(&req.Tmax, "tmax", 0, "last time point (0 = auto: where the curve nears its limit)")
	default:
		return fmt.Errorf("unknown subcommand %q", sub)
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if explainPath != "" {
		verb = "explain"
	}
	var err error
	if req.Spec, err = os.ReadFile(modelPath); err != nil {
		return err
	}

	// One root span per invocation (a no-op without -trace-out): the
	// solver phases underneath it land in the JSONL trace.
	span := obs.DefaultTracer().StartRoot("dtrplan", "", "verb", sub, "model", modelPath)
	defer span.End()
	resp, err := serve.Exec(verb, req, workers, span)
	if err != nil {
		return err
	}
	if ex, ok := resp.(*dtr.Explain); ok {
		// The self-auditing path: the plain path's policy and value plus
		// the versioned diagnostics artifact, written to the path ("-"
		// streams it to stdout in place of the human summary).
		data, err := json.MarshalIndent(ex, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if explainPath == "-" {
			_, err := out.Write(data)
			return err
		}
		if err := os.WriteFile(explainPath, data, 0o644); err != nil {
			return err
		}
	}
	render(out, req, resp)
	if explainPath != "" {
		fmt.Fprintf(out, "explain:   %s\n", explainPath)
	}
	return nil
}

// render prints a verb's typed answer as the human summary. The request
// supplies what the answers do not repeat: the deadline and the
// replication cap asked for.
func render(out io.Writer, req *serve.Request, resp any) {
	switch r := resp.(type) {
	case *serve.OptimizeResponse:
		renderPlan(out, req, r.Objective, r.Policy, r.Factors, float64(r.Value))
	case *dtr.Explain:
		value, factors := math.NaN(), []int(nil)
		if r.Value != nil {
			value = *r.Value
		}
		if r.Replication != nil {
			factors = r.Replication.Factors
		}
		renderPlan(out, req, r.Objective, r.PolicyString, factors, value)
	case *serve.MetricsResponse:
		fmt.Fprintf(out, "policy:      %s\n", r.Policy)
		fmt.Fprintf(out, "reliability: %.4f\n", r.Reliability)
		if mean := float64(r.MeanTime); !math.IsNaN(mean) {
			fmt.Fprintf(out, "mean time:   %.4f\n", mean)
		} else {
			fmt.Fprintln(out, "mean time:   (undefined: servers can fail)")
		}
		if req.Deadline > 0 {
			fmt.Fprintf(out, "QoS(%g):    %.4f\n", req.Deadline, r.QoS)
		}
	case *serve.SimulateResponse:
		fmt.Fprintf(out, "policy:      %s\n", r.Policy)
		fmt.Fprintf(out, "reps:        %d\n", r.Reps)
		fmt.Fprintf(out, "reliability: %.4f ± %.4f\n", r.Reliability, r.ReliabilityHalf)
		if mean := float64(r.MeanTime); !math.IsNaN(mean) {
			fmt.Fprintf(out, "mean time:   %.4f ± %.4f (over %d completed)\n", mean, r.MeanTimeHalf, r.Completed)
		}
		if req.Deadline > 0 {
			fmt.Fprintf(out, "QoS(%g):    %.4f ± %.4f\n", req.Deadline, r.QoS, r.QoSHalf)
		}
	case *serve.BoundsResponse:
		fmt.Fprintf(out, "policy: %s\n", r.Policy)
		if r.Exact {
			fmt.Fprintln(out, "exact (at most one group per server):")
		} else {
			fmt.Fprintln(out, "batch-arrival bounds (optimistic .. pessimistic):")
		}
		lo, hi := r.Optimistic, r.Pessimistic
		if !math.IsNaN(float64(lo.Mean)) {
			fmt.Fprintf(out, "mean time:   %.4f .. %.4f\n", lo.Mean, hi.Mean)
		}
		fmt.Fprintf(out, "reliability: %.4f .. %.4f\n", hi.Reliability, lo.Reliability)
		if req.Deadline > 0 && !math.IsNaN(float64(lo.QoS)) {
			fmt.Fprintf(out, "QoS(%g):    %.4f .. %.4f\n", req.Deadline, hi.QoS, lo.QoS)
		}
	case *serve.CDFResponse:
		fmt.Fprintf(out, "policy: %s\n", r.Policy)
		fmt.Fprintf(out, "%12s  %s\n", "t", "P(T <= t)")
		for _, pt := range r.Points {
			fmt.Fprintf(out, "%12.3f  %.4f\n", pt.T, pt.P)
		}
	}
}

// renderPlan prints an optimization's summary; factors are the chosen
// per-server replication factors of a joint search (nil = plain search),
// value NaN on multi-server systems.
func renderPlan(out io.Writer, req *serve.Request, objective, policy string, factors []int, value float64) {
	fmt.Fprintf(out, "objective: %s\n", objective)
	fmt.Fprintf(out, "policy:    %s\n", policy)
	if factors != nil {
		strs := make([]string, len(factors))
		for i, f := range factors {
			strs[i] = strconv.Itoa(f)
		}
		fmt.Fprintf(out, "replicate: %s (max %d)\n", strings.Join(strs, ","), req.Replication.MaxFactor)
	}
	if !math.IsNaN(value) {
		fmt.Fprintf(out, "value:     %.4f\n", value)
	} else {
		fmt.Fprintln(out, "value:     (multi-server: evaluate with `simulate -policy ...`)")
	}
}
