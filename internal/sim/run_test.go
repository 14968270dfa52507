package sim

import (
	"math/rand/v2"
	"testing"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/obs"
	"dtr/internal/rngutil"
	"dtr/internal/trace"
)

// Run simulates one realization starting from state s under model m,
// consuming randomness from r: RunTraced without a rebalancer or a trace.
func Run(m *core.Model, s *core.State, r *rand.Rand) Outcome {
	return RunControlled(m, s, r, nil)
}

// RunControlled is Run with an optional periodic rebalancer.
func RunControlled(m *core.Model, s *core.State, r *rand.Rand, rb *Rebalancer) Outcome {
	return RunTraced(m, s, r, rb, nil, 0)
}

// RunTraced simulates one realization from state s under model m on a
// fresh realization state, consuming randomness from r, with an optional
// periodic rebalancer rb and trace writer tw (replication index rep; see
// Options.Trace). The input state is not modified.
func RunTraced(m *core.Model, s *core.State, r *rand.Rand, rb *Rebalancer, tw *trace.Writer, rep int) Outcome {
	rn := newRun(m, s, rb, tw)
	rn.r = r
	rn.realize(rep)
	return rn.out
}

// TestEstimateCountsEvents: with a registry installed, one Estimate moves
// dtr_des_events_total by exactly the events its realizations popped,
// counted here by re-running each replication on its own stream.
func TestEstimateCountsEvents(t *testing.T) {
	m := model2(dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1), 60, 40, 1)
	s, err := core.NewState(m, []int{30, 15}, core.Policy2(8, 0))
	if err != nil {
		t.Fatal(err)
	}
	const reps, seed = 300, 9
	var want uint64
	rn := newRun(m, s, nil, nil)
	rn.r = rand.New(&rn.pcg)
	for i := 0; i < reps; i++ {
		rngutil.Reseed(&rn.pcg, seed, i)
		rn.realize(i)
		want += rn.a.events
	}

	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)
	if _, err := EstimateState(m, s, Options{Reps: reps, Seed: seed, Workers: 3}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["dtr_des_events_total"]; got != want || want == 0 {
		t.Fatalf("dtr_des_events_total moved by %d, the realizations popped %d", got, want)
	}
}
