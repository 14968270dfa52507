package sim

import "dtr/internal/obs"

// Monte-Carlo observability. The wall-time histogram and the per-worker
// busy-time gauges make stragglers visible: a replication whose wall
// time lands in the histogram tail, or a worker whose busy time runs far
// ahead of its peers, is exactly the straggling-replication effect that
// dominates parallel sweep wall-clock.
var (
	simReps      = obs.NewCounter("dtr_sim_replications_total")
	simCompleted = obs.NewCounter("dtr_sim_completed_total")
	simFailures  = obs.NewCounter("dtr_sim_failures_seen_total")
	simWall      = obs.NewTimer("dtr_sim_replication_wall_seconds")
	// simTime is the latency of completed replications in model time
	// units (canonical runs finish within ~10³ model seconds).
	simTime = obs.NewHistogram("dtr_sim_completion_time", obs.ExpBuckets(1, 2, 14))
	// simEvents counts the events the realizations' agendas popped, the
	// simulator's event-loop throughput; a realization adds its count
	// once, when it ends, so the event loop never touches shared state.
	simEvents = obs.NewCounter("dtr_des_events_total")
)
