// Command benchcheck validates benchmark reports in CI.
//
// Serve mode (default) checks a BENCH_serve.json document produced by
// dtrload: the schema must match, every configured (rate level, verb)
// cell must be present with positive, ordered latency quantiles, and no
// cell may record transport failures or 5xx answers. Used by
// scripts/load_smoke.sh to turn a load run into a pass/fail smoke test.
//
//	go run ./scripts/benchcheck BENCH_serve.json
//
// Policy-compare mode gates the Optimize2 benchmark against the
// committed baseline: the sweep's optimum must be bit-identical (policy
// and value) and the best wall-clock time must not regress by more than
// -max-regress (default 15%) against the baseline's best.
//
//	go run ./scripts/benchcheck -policy-baseline BENCH_policy.json BENCH_policy.ci.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	"dtr/internal/load"
)

func main() {
	fs := flag.NewFlagSet("benchcheck", flag.ExitOnError)
	baseline := fs.String("policy-baseline", "", "compare a BENCH_policy.json report against this committed baseline instead of validating a serve report")
	maxRegress := fs.Float64("max-regress", 0.15, "with -policy-baseline: maximum tolerated relative slowdown of the best run")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchcheck [-policy-baseline BENCH_policy.json [-max-regress 0.15]] <report.json>")
		fs.PrintDefaults()
	}
	_ = fs.Parse(os.Args[1:])
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	path := fs.Arg(0)
	var err error
	if *baseline != "" {
		err = checkPolicy(*baseline, path, *maxRegress)
	} else {
		err = check(path)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("benchcheck: %s OK\n", path)
}

func check(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep load.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("invalid JSON: %w", err)
	}
	if rep.Schema != load.ReportSchema {
		return fmt.Errorf("schema %q, want %q", rep.Schema, load.ReportSchema)
	}
	if len(rep.Levels) < 2 {
		return fmt.Errorf("%d rate levels, want at least 2", len(rep.Levels))
	}
	for _, lvl := range rep.Levels {
		if lvl.Offered == 0 || lvl.Completed != lvl.Offered {
			return fmt.Errorf("level %g rps: offered %d, completed %d", lvl.RPS, lvl.Offered, lvl.Completed)
		}
		if len(lvl.Verbs) < 2 {
			return fmt.Errorf("level %g rps: %d verbs, want at least 2", lvl.RPS, len(lvl.Verbs))
		}
		for _, vs := range lvl.Verbs {
			cell := fmt.Sprintf("level %g rps, verb %s", lvl.RPS, vs.Verb)
			if vs.Requests == 0 {
				return fmt.Errorf("%s: no requests", cell)
			}
			if vs.P50Ms <= 0 || vs.P50Ms > vs.P99Ms || vs.P99Ms > vs.P999Ms {
				return fmt.Errorf("%s: quantiles not positive and ordered: p50=%g p99=%g p999=%g",
					cell, vs.P50Ms, vs.P99Ms, vs.P999Ms)
			}
			if vs.ErrorRate != 0 {
				return fmt.Errorf("%s: error rate %g (codes %v)", cell, vs.ErrorRate, vs.Codes)
			}
		}
	}
	return nil
}

// policyReport mirrors the BENCH_policy.json document written by
// TestWriteBenchPolicy (internal/policy).
type policyReport struct {
	Benchmark     string `json:"benchmark"`
	NumCPU        int    `json:"num_cpu"`
	LatticePoints int    `json:"lattice_points"`
	GridN         int    `json:"grid_n"`
	Runs          []struct {
		Workers int     `json:"workers"`
		Seconds float64 `json:"seconds"`
	} `json:"runs"`
	OptimumL12   int     `json:"optimum_l12"`
	OptimumL21   int     `json:"optimum_l21"`
	OptimumValue float64 `json:"optimum_value"`
}

func readPolicy(path string) (*policyReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep policyReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: invalid JSON: %w", path, err)
	}
	if len(rep.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &rep, nil
}

// bestSeconds is the fastest run of a report: the gate compares best
// against best so worker-count scheduling noise on shared runners does
// not fail the build.
func bestSeconds(rep *policyReport) float64 {
	best := math.Inf(1)
	for _, r := range rep.Runs {
		if r.Seconds > 0 && r.Seconds < best {
			best = r.Seconds
		}
	}
	return best
}

func checkPolicy(basePath, curPath string, maxRegress float64) error {
	base, err := readPolicy(basePath)
	if err != nil {
		return err
	}
	cur, err := readPolicy(curPath)
	if err != nil {
		return err
	}
	return comparePolicy(base, cur, maxRegress)
}

func comparePolicy(base, cur *policyReport, maxRegress float64) error {
	if cur.Benchmark != base.Benchmark {
		return fmt.Errorf("benchmark %q, baseline %q", cur.Benchmark, base.Benchmark)
	}
	if cur.GridN != base.GridN || cur.LatticePoints != base.LatticePoints {
		return fmt.Errorf("workload changed: grid_n %d/%d, lattice_points %d/%d — re-baseline BENCH_policy.json",
			cur.GridN, base.GridN, cur.LatticePoints, base.LatticePoints)
	}
	// The sweep is deterministic: any drift in the optimum is a
	// correctness bug, not noise.
	if cur.OptimumL12 != base.OptimumL12 || cur.OptimumL21 != base.OptimumL21 {
		return fmt.Errorf("optimum moved: (%d, %d), baseline (%d, %d)",
			cur.OptimumL12, cur.OptimumL21, base.OptimumL12, base.OptimumL21)
	}
	if tol := 1e-9 * math.Max(1, math.Abs(base.OptimumValue)); math.Abs(cur.OptimumValue-base.OptimumValue) > tol {
		return fmt.Errorf("optimum value %.12g, baseline %.12g", cur.OptimumValue, base.OptimumValue)
	}
	// Wall-clock comparisons only mean something on matching hardware:
	// a baseline recorded on a single-CPU host says nothing about a
	// multi-core CI runner (and vice versa). Keep the bit-identity gate
	// above, skip the timing gate, and tell the operator to re-baseline
	// from this run's uploaded report.
	if cur.NumCPU != base.NumCPU {
		fmt.Printf("benchcheck: WARNING: baseline recorded on %d CPU(s), this run has %d — "+
			"timing gate skipped; commit this run's report as the new BENCH_policy.json baseline\n",
			base.NumCPU, cur.NumCPU)
		fmt.Printf("benchcheck: optimum (%d, %d) = %.6f matches baseline (bit-identical)\n",
			cur.OptimumL12, cur.OptimumL21, cur.OptimumValue)
		return nil
	}
	curBest, baseBest := bestSeconds(cur), bestSeconds(base)
	if math.IsInf(curBest, 1) || math.IsInf(baseBest, 1) {
		return fmt.Errorf("no positive run timings (current best %g, baseline best %g)", curBest, baseBest)
	}
	if curBest > baseBest*(1+maxRegress) {
		return fmt.Errorf("perf regression: best %.3fs vs baseline %.3fs (> %.0f%% slower)",
			curBest, baseBest, maxRegress*100)
	}
	fmt.Printf("benchcheck: policy best %.3fs vs baseline %.3fs (%.1f%%), optimum (%d, %d) = %.6f\n",
		curBest, baseBest, 100*(curBest/baseBest-1), cur.OptimumL12, cur.OptimumL21, cur.OptimumValue)
	return nil
}
