package core

import "dtr/internal/obs"

// Solver observability: the regeneration solver batches its hot-path
// stats in plain per-solver fields (it is single-goroutine by
// construction — the memo maps are unsynchronized) and flushes them to the
// metrics registry once per metric evaluation, so instrumentation costs
// nothing measurable even with a live registry.
var (
	memoHits    = obs.NewCounter("dtr_core_memo_hits_total")
	memoMisses  = obs.NewCounter("dtr_core_memo_misses_total")
	memoEntries = obs.NewGauge("dtr_core_memo_entries")
	solveCells  = obs.NewCounter("dtr_core_integration_cells_total")
	solveCalls  = obs.NewCounter("dtr_core_solves_total")
)

// solverStats accumulates one evaluation's worth of solver activity.
type solverStats struct {
	hits, misses, cells uint64
}

// flush publishes and resets the batched stats; entries is the solver's
// current memo footprint.
func (st *solverStats) flush(entries int) {
	solveCalls.Inc()
	memoHits.Add(st.hits)
	memoMisses.Add(st.misses)
	solveCells.Add(st.cells)
	memoEntries.Set(float64(entries))
	*st = solverStats{}
}
