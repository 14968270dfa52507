package dtr

import (
	"fmt"
	"time"

	"dtr/dist/fit"
	"dtr/internal/sim"
	"dtr/internal/stat"
	"dtr/internal/testbed"
)

// SimOptions configures Monte-Carlo estimation (see sim.Options).
type SimOptions = sim.Options

// SimEstimates reports Monte-Carlo metric estimates with confidence
// intervals (see sim.Estimates).
type SimEstimates = sim.Estimates

// Rebalancer re-runs a DTR decision periodically inside each simulated
// realization, generalizing the single-shot t = 0 policy to run-time
// control (see sim.Rebalancer). Attach one via SimOptions.Rebalance.
type Rebalancer = sim.Rebalancer

// Simulate runs Monte-Carlo replications of this system under the policy
// and returns metric estimates with confidence intervals. It works for
// any number of servers and is the evaluation path for multi-server
// policies, mirroring the paper's Table II methodology. When
// opt.Workers is unset the System's Workers setting applies.
func (s *System) Simulate(p Policy, opt SimOptions) (SimEstimates, error) {
	if opt.Workers == 0 {
		opt.Workers = s.Workers
	}
	return sim.Estimate(s.model, s.initial, p, opt)
}

// SimulateState runs Monte-Carlo replications from an arbitrary
// age-dependent state (non-zero clock ages, groups mid-flight).
func SimulateState(m *Model, st *State, opt SimOptions) (SimEstimates, error) {
	return sim.EstimateState(m, st, opt)
}

// SimulateReplicated simulates the system under a policy AND per-server
// replication factors (one entry per server; nil or all-ones is plain
// Simulate). The simulator spawns each replicated task's copies as real
// discrete events and cancels the losers when the first copy completes —
// an independent realization of the min-of-k analytics, which the
// cross-validation tests compare against the solvers. With all factors 1
// the randomness stream, outcomes and any trace output are bit-identical
// to Simulate.
func (s *System) SimulateReplicated(p Policy, factors []int, opt SimOptions) (SimEstimates, error) {
	if factors != nil && len(factors) != s.model.N() {
		return SimEstimates{}, fmt.Errorf("dtr: %d servers but %d replication factors", s.model.N(), len(factors))
	}
	if opt.Workers == 0 {
		opt.Workers = s.Workers
	}
	return sim.Estimate(s.model.WithRepl(factors), s.initial, p, opt)
}

// Testbed is the wall-clock message-passing testbed: goroutine servers
// exchanging task groups and failure notices over TCP loopback in scaled
// time (see the testbed package documentation).
type Testbed = testbed.Testbed

// TestbedOutcome is one testbed realization's result.
type TestbedOutcome = testbed.Outcome

// NewTestbed builds a testbed for the model at the given time scale
// (0 = 1 ms per model second).
func NewTestbed(m *Model, scale time.Duration, seed uint64) *Testbed {
	return &Testbed{Model: m, Scale: scale, Seed: seed}
}

// Fit is a fitted candidate distribution with goodness-of-fit scores.
type Fit = fit.Ranked

// FitDistributions fits the paper's six candidate families (Exponential,
// Pareto, Uniform, Shifted-Exponential, Gamma, Shifted-Gamma) to the
// sample by maximum likelihood — the estimators of dist/fit — and ranks
// the fits by the paper's criterion: minimum total squared error between
// the fitted pdf and the bins-bin normalized histogram (60 is a good
// default), the pipeline behind Fig. 4(a,b). Delay samples are positive:
// an empty sample, one with a non-positive observation, or bins < 1 gets
// no fits. The Shifted-Gamma shift is profiled over [0, min) on a scan
// that stays clear of the sample minimum, where a shape below one makes
// the likelihood unbounded.
func FitDistributions(samples []float64, bins int) []Fit {
	return fit.RankTSE(samples, fit.PaperFamilies(), bins)
}

// Histogram is a normalized histogram (see stat.Histogram).
type Histogram = stat.Histogram

// NewHistogram bins the sample into a normalized histogram.
func NewHistogram(samples []float64, bins int) *Histogram {
	return stat.NewHistogram(samples, bins)
}
