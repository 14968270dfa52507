package dtr

import (
	"dtr/internal/nserver"
)

// MetricBounds brackets the metrics of an n-server scenario where several
// task groups may converge on the same server — the case whose exact
// characterization requires integrating over all arrival orders. The
// bounds implement the paper's §IV proposal: treat each server's incoming
// tasks as a single batch arriving at the earliest (Optimistic) or latest
// (Pessimistic) of its groups' transfer times; both are pathwise bounds
// for a work-conserving server.
type MetricBounds = nserver.Bounds

// BoundMetrics is one side of a MetricBounds bracket.
type BoundMetrics = nserver.Metrics

// MetricBounds returns two-sided analytic bounds on the metrics of this
// system under the policy (deadline ≤ 0 skips the QoS). The true mean
// lies in [Optimistic.Mean, Pessimistic.Mean]; QoS and Reliability lie in
// [Pessimistic, Optimistic]. When no server receives more than one group
// — every two-server canonical scenario — the sides coincide with the
// exact value and Exact is set.
func (s *System) MetricBounds(p Policy, deadline float64) (MetricBounds, error) {
	total := 0
	for _, q := range s.initial {
		total += q
	}
	ns, err := nserver.NewSolver(s.model, nserver.Config{
		GridN:    s.GridN,
		Horizon:  s.Horizon,
		MaxQueue: total,
	})
	if err != nil {
		return MetricBounds{}, err
	}
	return ns.Evaluate(s.initial, p, deadline)
}
