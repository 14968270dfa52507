package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"
)

// passLimit bounds one traced-run pass; the pass is sized by its unit
// count (profile.traceUnits), the limit only stops a runaway.
const passLimit = 150 * time.Second

// counterNames are the program's own registry counters whose deltas over
// the untraced pass become per-layer counts.
var counterNames = []string{
	"dtr_solver_folds_total",
	"dtr_direct_fft_cache_hits_total",
	"dtr_direct_fft_cache_misses_total",
	"dtr_policy_sweep_evaluations_total",
	"dtr_serve_cache_hits_total",
	"dtr_serve_cache_misses_total",
	"dtr_serve_computes_total",
}

// runTraced produces the per-layer metrics: the workload-independent
// layer measurements, then a fixed prefix of the workload's unit list
// replayed by one client twice on freshly set-up stacks — first with
// tracing off (the baseline, and the source of the counter deltas), then
// with spans and the per-layer replay on.
func runTraced(w workload, seed uint64, p profile, spanDir string, doc *runDoc) error {
	layers, err := layerMetrics(p)
	if err != nil {
		return err
	}
	units := p.traceUnits[w.name]

	inst, err := w.setup(seed, p)
	if err != nil {
		return fmt.Errorf("%s set-up: %w", w.name, err)
	}
	doc.Provenance.InputSHA256, doc.Provenance.Counts = inst.inputSHA, inst.counts
	before := inst.reg.Snapshot().Counters
	restore := w.pinProcs()
	plain := runLoop(inst, 1, passLimit, units, 0, nil, nil)
	restore()
	after := inst.reg.Snapshot().Counters
	inst.close()
	if plain.attempted == 0 {
		return fmt.Errorf("%s: no operation completed", w.name)
	}
	delta := map[string]float64{}
	for _, name := range counterNames {
		delta[name] = float64(after[name] - before[name])
	}

	if inst, err = w.setup(seed, p); err != nil {
		return fmt.Errorf("%s set-up: %w", w.name, err)
	}
	tr := newTracer()
	restore = w.pinProcs()
	traced := runLoop(inst, 1, passLimit, units, 0, nil, tr)
	restore()
	inst.close()
	if traced.attempted == 0 {
		return fmt.Errorf("%s: no traced operation completed", w.name)
	}
	doc.SpanFile = filepath.Join(spanDir, "trace-"+w.name+".jsonl")
	if err := tr.write(doc.SpanFile); err != nil {
		return err
	}

	// Both passes count: a failure in either is a failure of the run.
	doc.fill(plain)
	doc.Result.Attempted += traced.attempted
	doc.Result.Failed += traced.failed
	doc.Result.Correct = doc.Result.Failed == 0
	doc.FailShare = float64(doc.Result.Failed) / float64(doc.Result.Attempted)
	if doc.Failure == "" {
		doc.Failure = failure(traced)
	}
	doc.Ledger = tr.ledger()

	share := func(part, rest float64) float64 {
		if part+rest == 0 {
			return 0
		}
		return part / (part + rest)
	}
	httpMS, leavesMS, unattributed := tr.reconcile()
	if httpMS > 0 {
		doc.Reconcile = &reconcileDoc{httpMS, leavesMS, unattributed, math.Abs(httpMS-leavesMS) / httpMS}
	}
	p50 := func(r loopResult) float64 { return ms(r.lat[len(r.lat)/2]) }
	_, tailPct := tailIndex(len(plain.lat))

	m := layers
	m["direct.folds"] = metric{delta["dtr_solver_folds_total"], "count"}
	m["direct.fft_transforms"] = metric{delta["dtr_direct_fft_cache_misses_total"], "count"}
	m["direct.fft_cache_hit_share"] = metric{share(delta["dtr_direct_fft_cache_hits_total"], delta["dtr_direct_fft_cache_misses_total"]), "ratio"}
	m["policy.evaluations"] = metric{delta["dtr_policy_sweep_evaluations_total"], "count"}
	m["serve.cache_hit_share"] = metric{share(delta["dtr_serve_cache_hits_total"], delta["dtr_serve_cache_misses_total"]), "ratio"}
	m["serve.computes"] = metric{delta["dtr_serve_computes_total"], "count"}
	m["serve.computes_per_unit"] = metric{delta["dtr_serve_computes_total"] / float64(plain.units), "count"}
	m["serve.unattributed_ms"] = metric{unattributed, "ms"}
	m["load.samples"] = metric{float64(plain.attempted), "count"}
	m["load.tail_percentile"] = metric{tailPct, "%"}
	m["load.wall_s"] = metric{plain.wall.Seconds(), "s"}
	m["load.gc_cpu_share"] = metric{plain.gcCPU, "ratio"}
	m["load.allocs_per_op"] = metric{float64(plain.mallocs) / float64(plain.attempted), "count"}
	m["obs.trace_overhead_share"] = metric{p50(traced)/p50(plain) - 1, "ratio"}
	doc.Result.Metrics = m
	return nil
}
