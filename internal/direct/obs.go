package direct

import "dtr/internal/obs"

// Metric handles for the canonical solver's two caches. They are lazy:
// until obs.SetDefault installs a registry every call is a no-op costing
// one atomic load. A miss is one computation of a cached value; a reader
// that waited for another's computation counts as a hit. Evaluations are
// counted per finish-pair construction, the unit Figs. 1–3 sweep over.
var (
	fftHits   = obs.NewCounter("dtr_direct_fft_cache_hits_total")
	fftMisses = obs.NewCounter("dtr_direct_fft_cache_misses_total")
	zHits     = obs.NewCounter("dtr_direct_transfer_cache_hits_total")
	zMisses   = obs.NewCounter("dtr_direct_transfer_cache_misses_total")
	evals     = obs.NewCounter("dtr_direct_evals_total")
)

// Solver-health metrics (see Diagnostics): numerical error budgets
// observed while solving. Residuals and tail masses are probabilities,
// so the exponential buckets span round-off (~1e-16) up to visibly-broken
// (~1e-2 residual, ~10% tail).
var (
	// solverBuilds counts prefix chains built, one per (server, factor).
	solverBuilds       = obs.NewCounter("dtr_solver_builds_total")
	solverFolds        = obs.NewCounter("dtr_solver_folds_total")
	solverMassResidual = obs.NewHistogram("dtr_solver_fold_mass_residual", obs.ExpBuckets(1e-16, 10, 14))
	solverTailMass     = obs.NewHistogram("dtr_solver_tail_mass", obs.ExpBuckets(1e-12, 10, 12))
	probeRuns          = obs.NewCounter("dtr_solver_probe_runs_total")
	probeError         = obs.NewHistogram("dtr_solver_probe_error", obs.ExpBuckets(1e-12, 10, 12))
)
