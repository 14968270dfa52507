// Command benchcheck validates a BENCH_serve.json document produced by
// dtrload: the schema must match, every configured (rate level, verb)
// cell must be present with positive, ordered latency quantiles, and no
// cell may record transport failures or 5xx answers. Used by
// scripts/load_smoke.sh to turn a load run into a pass/fail smoke test.
//
//	go run ./scripts/benchcheck BENCH_serve.json
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"dtr/internal/load"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcheck <report.json>")
		os.Exit(2)
	}
	path := os.Args[1]
	if err := check(path); err != nil {
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
