package dtr

import (
	"dtr/internal/direct"
)

// MetricBounds brackets the metrics of an n-server scenario where several
// task groups may converge on the same server — the case whose exact
// characterization requires integrating over all arrival orders. The
// bounds implement the paper's §IV proposal: treat each server's incoming
// tasks as a single batch arriving at the earliest (Optimistic) or latest
// (Pessimistic) of its groups' transfer times; both are pathwise bounds
// for a work-conserving server.
type MetricBounds = direct.Bounds

// BoundMetrics is one side of a MetricBounds bracket.
type BoundMetrics = direct.Metrics

// MetricBounds returns two-sided analytic bounds on the metrics of this
// system under the policy (deadline ≤ 0 skips the QoS). The true mean
// lies in [Optimistic.Mean, Pessimistic.Mean]; QoS and Reliability lie in
// [Pessimistic, Optimistic]. When no server receives more than one group
// — every two-server canonical scenario — the sides coincide with the
// exact value and Exact is set. The bounds are read off the same solver
// tables as every other analytic method.
func (s *System) MetricBounds(p Policy, deadline float64) (MetricBounds, error) {
	sv, err := s.solverWithFactor(1)
	if err != nil {
		return MetricBounds{}, err
	}
	return sv.Bounds(direct.Point{Initial: s.initial, Policy: p}, deadline)
}
