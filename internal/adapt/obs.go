package adapt

import "dtr/internal/obs"

// Controller observability. Per-channel drift and fitted-mean gauges
// are registered dynamically (channel names depend on the system size);
// see drifted and replan.
var (
	adaptFits    = obs.NewCounter("dtr_adapt_fits_total")
	adaptDrift   = obs.NewCounter("dtr_adapt_drift_events_total")
	adaptReplans = obs.NewCounter("dtr_adapt_replans_total")
	adaptRefit   = obs.NewTimer("dtr_adapt_refit_seconds")
	// adaptSnapshots counts ingest snapshots fed through the stats path.
	adaptSnapshots = obs.NewCounter("dtr_adapt_snapshots_total")
)
