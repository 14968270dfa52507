package dtr

import (
	"fmt"
	"math"

	"dtr/internal/direct"
	"dtr/internal/policy"
)

// ExplainSchema versions the explain artifact; bump on incompatible
// shape changes so downstream consumers (dashboards, stored artifacts)
// can dispatch.
const ExplainSchema = "dtr.explain.v1"

// SolverDiagnostics re-exports the canonical solver's numerical-health
// snapshot (see direct.Diagnostics).
type SolverDiagnostics = direct.Diagnostics

// SweepDiagnostics re-exports Optimize2's lattice-coverage statistics.
type SweepDiagnostics = policy.SweepDiagnostics

// Alg1Diagnostics re-exports Algorithm 1's convergence record.
type Alg1Diagnostics = policy.Alg1Diagnostics

// ExplainOptions selects what Explain optimizes and audits.
type ExplainOptions struct {
	// Objective is "mean" (default), "qos" or "reliability".
	Objective string
	// Deadline is the QoS horizon TM (required for "qos").
	Deadline float64
	// Probe additionally runs the half-resolution grid-error probe at
	// the winning policy (two-server systems only; the first probe builds
	// a half-resolution shadow of the solver's tables). Ignored for
	// multi-server systems, whose pairwise solvers are transient.
	Probe bool
	// Replication, when set with MaxFactor > 1, switches the solve to
	// the joint reallocation+replication search and adds the
	// Replication section to the artifact. Nil (or MaxFactor ≤ 1)
	// leaves the artifact byte-identical to the pre-replication shape.
	Replication *ReplicationConfig
}

// ReplCombo re-exports one factor combination's search record.
type ReplCombo = policy.ReplCombo

// ExplainReplication is the replication section of an explain artifact:
// the search bounds, the winning per-server factors, and (two-server
// systems) every factor combination's best policy and value — the
// diversity/parallelism trade-off curve the plan was chosen from.
type ExplainReplication struct {
	MaxFactor int   `json:"maxFactor"`
	Budget    int   `json:"budget,omitempty"`
	Factors   []int `json:"factors"`
	// Combos is the per-combination record in evaluation order,
	// (1, 1) first (two-server searches only).
	Combos []ReplCombo `json:"combos,omitempty"`
}

// ExplainProbe is the grid-error probe section of an explain artifact:
// the winning objective value recomputed at half resolution and the
// implied discretization-error estimate. Pointer fields are nil when the
// metric is undefined (mean time on failure-prone servers).
type ExplainProbe struct {
	// CoarseGridN is the shadow lattice's point count.
	CoarseGridN int `json:"coarseGridN"`
	// Fine and Coarse are the objective's value at full and half
	// resolution; AbsError = |Fine − Coarse| upper-bounds the fine
	// grid's truncation error for first-order-or-better convergence.
	Fine     *float64 `json:"fine"`
	Coarse   *float64 `json:"coarse"`
	AbsError *float64 `json:"absError"`
	// RelError is AbsError/|Fine| (omitted when Fine is 0 or undefined).
	RelError *float64 `json:"relError,omitempty"`
	// TailMassFine/TailMassCoarse are the truncated probability masses
	// of the winning policy's finish laws at the two resolutions.
	TailMassFine   float64 `json:"tailMassFine"`
	TailMassCoarse float64 `json:"tailMassCoarse"`
}

// Explain is the versioned self-audit artifact of one policy
// optimization: the winning policy and objective, plus the numerical and
// convergence diagnostics of every solver phase that produced it. It is
// JSON-stable (all floats are finite by construction) and carries enough
// context to reproduce the solve.
type Explain struct {
	Schema    string  `json:"schema"`
	Objective string  `json:"objective"`
	Deadline  float64 `json:"deadline,omitempty"`
	Servers   int     `json:"servers"`
	// GridN is the analytic solver's lattice size (two-server systems).
	GridN int `json:"gridN,omitempty"`
	// Policy is the winning reallocation matrix; PolicyString is its
	// human-readable ParsePolicy-compatible "src>dst:count" rendering.
	Policy       [][]int `json:"policy"`
	PolicyString string  `json:"policyString"`
	// Value is the achieved objective (omitted for multi-server runs,
	// whose values come from simulation).
	Value *float64 `json:"value,omitempty"`
	// Solver and Sweep audit the two-server analytic path; Algorithm1
	// audits the multi-server path. Exactly one set is present.
	Solver     *SolverDiagnostics `json:"solver,omitempty"`
	Sweep      *SweepDiagnostics  `json:"sweep,omitempty"`
	Algorithm1 *Alg1Diagnostics   `json:"algorithm1,omitempty"`
	// Probe is the optional grid-error estimate (ExplainOptions.Probe).
	Probe *ExplainProbe `json:"probe,omitempty"`
	// Replication is present exactly when the solve searched replication
	// factors (ExplainOptions.Replication with MaxFactor > 1).
	Replication *ExplainReplication `json:"replication,omitempty"`
}

// fptr boxes a finite float; NaN and ±Inf become nil so the artifact
// stays valid JSON without lossy null-encoding tricks.
func fptr(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// Explain optimizes the system under the requested objective and returns
// the versioned explain artifact: the winning policy alongside the
// numerical-health and convergence diagnostics of the solve. The policy
// and value are bit-identical to the plain optimizer calls
// (OptimalMeanPolicy etc.) — both are projections of one plan path.
func (s *System) Explain(opt ExplainOptions) (*Explain, error) {
	obj, objName, err := policy.ParseObjective(opt.Objective, opt.Deadline)
	if err != nil {
		return nil, fmt.Errorf("dtr: explain: %w", err)
	}
	var repl ReplicationConfig
	if opt.Replication != nil {
		repl = *opt.Replication
	}
	pl, err := s.plan(obj, opt.Deadline, repl)
	if err != nil {
		return nil, err
	}
	ex := &Explain{
		Schema:       ExplainSchema,
		Objective:    objName,
		Deadline:     opt.Deadline,
		Servers:      s.model.N(),
		Policy:       pl.policy,
		PolicyString: FormatPolicy(pl.policy),
		Value:        fptr(pl.value),
		Sweep:        pl.sweep,
		Algorithm1:   pl.alg1,
	}
	if repl.MaxFactor > 1 {
		ex.Replication = &ExplainReplication{MaxFactor: repl.MaxFactor, Budget: repl.Budget, Factors: pl.factors}
		if pl.repl != nil {
			ex.Replication.Combos = pl.repl.Combos
		}
	}
	if pl.solver == nil {
		return ex, nil
	}
	// Snapshot the solver audit before the probe: the probe re-evaluates
	// the winner, which would inflate the sweep's fold counters.
	diag := pl.solver.Diagnostics()
	ex.GridN = diag.GridN
	ex.Solver = &diag

	if opt.Probe {
		// The probe's grid-error estimate is computed at the winning
		// (L12, L21) under the model's default factors: discretization
		// error is a property of the lattice geometry, which the factor
		// only lightens (min-of-k tails are strictly lighter).
		pr, err := pl.solver.ProbeGridError(direct.Point{Initial: s.initial, Policy: pl.policy}, opt.Deadline)
		if err != nil {
			return nil, err
		}
		ex.Probe = explainProbe(obj, pr)
	}
	return ex, nil
}

// explainProbe projects a ProbeResult onto the objective being reported.
func explainProbe(obj policy.Objective, pr *direct.ProbeResult) *ExplainProbe {
	var fine, coarse, abs float64
	switch obj {
	case policy.ObjQoS:
		fine, coarse, abs = pr.Fine.QoS, pr.Coarse.QoS, pr.QoSErr
	case policy.ObjReliability:
		fine, coarse, abs = pr.Fine.Reliability, pr.Coarse.Reliability, pr.ReliabilityErr
	default:
		fine, coarse, abs = pr.Fine.Mean, pr.Coarse.Mean, pr.MeanErr
	}
	ep := &ExplainProbe{
		CoarseGridN:    pr.CoarseN,
		Fine:           fptr(fine),
		Coarse:         fptr(coarse),
		AbsError:       fptr(abs),
		TailMassFine:   pr.Fine.TailMass,
		TailMassCoarse: pr.Coarse.TailMass,
	}
	if ep.Fine != nil && ep.AbsError != nil && fine != 0 {
		ep.RelError = fptr(abs / math.Abs(fine))
	}
	return ep
}
