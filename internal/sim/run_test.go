package sim

import (
	"math/rand/v2"

	"dtr/internal/core"
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
