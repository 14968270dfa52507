// Package dtr is a Go implementation of optimal task reallocation in
// heterogeneous distributed computing systems with age-dependent
// (non-Markovian) delay statistics, reproducing Pezoa, Hayat, Wang and
// Dhakal (ICPP 2010).
//
// A distributed computing system (DCS) of n heterogeneous servers
// executes a workload of independent tasks. Service times, permanent
// server failure times, and network transfer times are random with
// *general* distributions — Pareto service tails and shifted-gamma
// transfer delays in the paper's testbed — and a dynamic task
// reallocation (DTR) policy moves tasks between servers at t = 0 to
// optimize one of three metrics:
//
//   - the mean workload execution time (reliable servers),
//   - the QoS: the probability of finishing by a deadline,
//   - the service reliability: the probability of ever finishing when
//     servers can fail permanently and stranded tasks are lost.
//
// # Quick start
//
//	m := &dtr.Model{
//	    Service: []dist.Dist{dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1)},
//	    Failure: []dist.Dist{dist.Never{}, dist.Never{}},
//	    Transfer: func(tasks, src, dst int) dist.Dist {
//	        return dist.NewShiftedExponential(0.2, float64(tasks))
//	    },
//	}
//	sys, _ := dtr.NewSystem(m, []int{100, 50})
//	pol, tbar, _ := sys.OptimalMeanPolicy()   // solve problem (3)
//	fmt.Printf("ship %d tasks 1→2: mean time %.1f s\n", pol[0][1], tbar)
//
// # Solvers
//
// Three independent engines evaluate the metrics, and the test suite
// cross-validates them against each other:
//
//   - the age-dependent regeneration recursion (the paper's Theorem 1),
//     exact for arbitrary n-server configurations up to an age-grid
//     resolution, at a cost exponential in n — see RegenSolver;
//   - a convolution solver for the canonical scenario (one reallocation
//     at t = 0) at paper scale and for any number of servers, exact
//     whenever no server receives more than one task group and the
//     paper's §IV batch-arrival bracket otherwise — behind System's metric
//     methods and MetricBounds;
//   - a discrete-event Monte-Carlo simulator for any number of servers —
//     System.Simulate.
//
// Multi-server policies come from the paper's Algorithm 1
// (System.Algorithm1), which decomposes the system into two-server
// problems and scales linearly in the number of servers.
//
// The dist subpackage provides the distribution library, including the
// Aged operation — the conditional residual law that powers the
// non-Markovian analysis. The cmd/dtrlab binary regenerates every table
// and figure of the paper's evaluation section; see EXPERIMENTS.md.
package dtr
