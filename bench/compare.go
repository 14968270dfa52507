package main

import (
	"fmt"
	"io"
	"os"
	"slices"
)

// benchmarkSpec is BENCHMARK.json, the declaration this program
// implements: names, units, directions and regression bounds.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadBenchmarkSpec reads BENCHMARK.json from the repository root: the
// working directory under `go run ./bench`, its parent under `go test`.
func loadBenchmarkSpec() (*benchmarkSpec, error) {
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if _, err := os.Stat(path); err == nil {
			return readJSON[benchmarkSpec](path)
		}
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method
// the benchmark driver uses); both are the single value when n < 2.
func quartiles(values []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(values))
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // may leave [0, 4]: the ends extrapolate
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// compareDocs prints one row per (end-to-end metric, workload): both
// medians, the ratio with its base, how much worse b reads than a as a
// share of a, the spread between each set's own runs, the bound, and a
// verdict. "unresolved" means the spread is wider than the bound, so
// neither "ok" nor "worse" can be told — unless every run of b reads
// better than every run of a. It fails when any row is worse.
func compareDocs(pathA, pathB string, w io.Writer) error {
	spec, err := loadBenchmarkSpec()
	if err != nil {
		return err
	}
	a, err := readJSON[allDoc](pathA)
	if err != nil {
		return err
	}
	b, err := readJSON[allDoc](pathB)
	if err != nil {
		return err
	}
	values := func(d *allDoc, workload, name string) []float64 {
		var out []float64
		for _, r := range d.Runs {
			if m, ok := r.Result.Metrics[name]; ok && r.Workload == workload && !r.Traced {
				out = append(out, m.Value)
			}
		}
		return out
	}
	fmt.Fprintf(w, "a = %s (%s, %d runs)\nb = %s (%s, %d runs)\n", pathA, a.Provenance.GitSHA, len(a.Runs), pathB, b.Provenance.GitSHA, len(b.Runs))
	fmt.Fprintf(w, "%-14s %-16s %-6s %13s %13s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "unit", "median a", "median b", "b/a (base a)", "worse", "spread", "bound", "verdict")
	worse := 0
	for _, wl := range spec.Workloads {
		for _, ms := range spec.EndToEnd {
			va, vb := values(a, wl.Name, ms.Name), values(b, wl.Name, ms.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-14s %-16s missing from one document\n", wl.Name, ms.Name)
				continue
			}
			ma, mb := median(va), median(vb)
			by := (mb - ma) / ma
			if ms.Better == "higher" {
				by = -by
			}
			spread := 0.0
			for _, set := range [][]float64{va, vb} {
				q1, q3 := quartiles(set)
				if s := (q3 - q1) / median(set); s > spread {
					spread = s
				}
			}
			verdict := "ok"
			switch {
			case spread > ms.Bound && !allBetter(va, vb, ms.Better):
				verdict = "unresolved"
			case by > ms.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(w, "%-14s %-16s %-6s %13.6g %13.6g %12.4f %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl.Name, ms.Name, ms.Unit, ma, mb, mb/ma, 100*by, 100*spread, 100*ms.Bound, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than the bound allows", worse)
	}
	return nil
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(a, b []float64, better string) bool {
	if better == "higher" {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}
