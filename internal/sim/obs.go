package sim

import "dtr/internal/obs"

// Monte-Carlo observability. A replication whose wall time lands in the
// histogram's tail is the straggling-replication effect that dominates
// parallel sweep wall-clock.
var (
	simReps = obs.NewCounter("dtr_sim_replications_total")
	simWall = obs.NewTimer("dtr_sim_replication_wall_seconds")
	// simEvents counts the events the realizations' agendas popped, the
	// simulator's event-loop throughput; a realization adds its count
	// once, when it ends, so the event loop never touches shared state.
	simEvents = obs.NewCounter("dtr_des_events_total")
)
