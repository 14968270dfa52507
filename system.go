package dtr

import (
	"fmt"
	"math"

	"dtr/internal/core"
	"dtr/internal/direct"
	"dtr/internal/obs"
	"dtr/internal/policy"
	"dtr/internal/solversrc"
)

// Model describes the DCS: per-server service and failure laws plus the
// network's transfer behavior. See core.Model for field documentation.
type Model = core.Model

// Policy is a DTR reallocation matrix: Policy[i][j] tasks move from
// server i to server j at t = 0.
type Policy = core.Policy

// State is the age-dependent system state S = (M, F, C, a).
type State = core.State

// Group is a task batch in transit.
type Group = core.Group

// RegenSolver is the paper's age-dependent regeneration solver
// (Theorem 1) for arbitrary configurations — any ages, any number of
// in-flight groups — of an n-server system.
type RegenSolver = core.Solver

// NewPolicy returns an all-zero policy for n servers.
func NewPolicy(n int) Policy { return core.NewPolicy(n) }

// Policy2 returns the two-server policy (L12, L21).
func Policy2(l12, l21 int) Policy { return core.Policy2(l12, l21) }

// NewState builds the canonical post-reallocation state: queues reduced
// by the policy, every shipment a fresh in-flight group, null age matrix.
func NewState(m *Model, initial []int, p Policy) (*State, error) {
	return core.NewState(m, initial, p)
}

// NewRegenSolver returns the age-dependent regeneration solver for the
// model with default grid settings (tune Step/Horizon/AgeCap on the
// returned value). Neither the number of servers nor the number of
// in-flight groups or failure notices is capped; the cost is exponential
// in the number of servers and MaxStates is the valve.
func NewRegenSolver(m *Model) (*RegenSolver, error) {
	return core.NewSolver(m)
}

// System couples a model with an initial task allocation and provides
// the paper's metrics and optimizers. The analytic metric methods cover
// the canonical scenario (a single reallocation at t = 0) wherever its
// characterization is exact: every two-server policy, and the n-server
// policies under which no server receives more than one task group.
// Policies that converge several groups on one server are served by
// MetricBounds and Simulate; the exact optimizers are two-server, n-server
// systems plan with Algorithm1.
type System struct {
	model   *Model
	initial []int

	// GridN and Horizon size the analytic solver's time lattice;
	// zero values pick defaults (8192 points, auto horizon).
	GridN   int
	Horizon float64

	// Workers shards the policy sweeps, Algorithm-1 refinement rows and
	// (when SimOptions.Workers is unset) Monte-Carlo replications over a
	// worker pool (0 = GOMAXPROCS). Results are bit-identical at every
	// worker count; see policy.Options2.Workers.
	Workers int

	// Span, when set, attaches solver-phase sub-spans (Optimize2 sweep
	// passes, Algorithm-1 rows, FFT/convolution cache fills) to a
	// request-scoped trace (internal/obs tracing). Purely observational:
	// results are bit-identical with or without it, and tracing consumes
	// no randomness.
	Span *obs.Span

	solver *direct.Solver
	// newSolver is where the solver comes from: direct.NewSolver unless
	// internal/solversrc attached another source.
	newSolver solversrc.Func
}

func init() {
	solversrc.Attach = func(sys any, src solversrc.Func) { sys.(*System).newSolver = src }
}

// NewSystem validates the model and allocation and returns a System.
func NewSystem(m *Model, initial []int) (*System, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(initial) != m.N() {
		return nil, fmt.Errorf("dtr: %d servers but %d initial queue lengths", m.N(), len(initial))
	}
	for k, q := range initial {
		if q < 0 {
			return nil, fmt.Errorf("dtr: negative initial queue at server %d", k)
		}
	}
	return &System{model: m, initial: append([]int(nil), initial...), newSolver: direct.NewSolver}, nil
}

// Model returns the system's model.
func (s *System) Model() *Model { return s.model }

// Initial returns a copy of the initial allocation.
func (s *System) Initial() []int { return append([]int(nil), s.initial...) }

// solverWithFactor returns the canonical-scenario solver (building it
// lazily) with prefix tables covering replication factors up to maxFac,
// asking the source again when a bigger factor is first requested. A
// solver's factor-1 tables are the same whatever its largest factor, so
// plain metric calls are unaffected by the switch.
func (s *System) solverWithFactor(maxFac int) (*direct.Solver, error) {
	if s.solver == nil || s.solver.MaxFactor() < maxFac {
		maxQ := 0
		for _, q := range s.initial {
			maxQ += q
		}
		sv, err := s.newSolver(s.model, direct.Config{
			N:         s.GridN,
			Horizon:   s.Horizon,
			MaxQueue:  [2]int{maxQ, maxQ},
			Span:      s.Span,
			MaxFactor: maxFac,
		})
		if err != nil {
			return nil, err
		}
		s.solver = sv
	}
	return s.solver, nil
}

// eval reads the metric m of the policy on the canonical-scenario solver.
func (s *System) eval(p Policy, m direct.Metric, deadline float64) (float64, error) {
	sv, err := s.solverWithFactor(1)
	if err != nil {
		return 0, err
	}
	return sv.Eval(direct.Point{Initial: s.initial, Policy: p}, m, deadline)
}

// MeanTime returns the mean workload execution time T̄ under the policy.
// Every server must be reliable (dist.Never failure law).
func (s *System) MeanTime(p Policy) (float64, error) {
	return s.eval(p, direct.MetricMean, 0)
}

// QoS returns P(T < deadline) under the policy.
func (s *System) QoS(p Policy, deadline float64) (float64, error) {
	return s.eval(p, direct.MetricQoS, deadline)
}

// Reliability returns P(T < ∞) under the policy.
func (s *System) Reliability(p Policy) (float64, error) {
	return s.eval(p, direct.MetricReliability, 0)
}

// CompletionCDF returns the distribution function of the workload
// execution time under the policy as a callable F(t) = P(T ≤ t),
// evaluated by interpolation on the solver lattice. With failure-prone
// servers the curve saturates at the service reliability (T = ∞ has
// positive probability).
func (s *System) CompletionCDF(p Policy) (func(float64) float64, error) {
	sv, err := s.solverWithFactor(1)
	if err != nil {
		return nil, err
	}
	cdf, err := sv.CDF(direct.Point{Initial: s.initial, Policy: p})
	if err != nil {
		return nil, err
	}
	dx := sv.Dx()
	return func(t float64) float64 {
		if t < 0 {
			return 0
		}
		pos := t / dx
		// Compare before converting: int(pos) overflows for NaN and huge
		// t (e.g. the auto-tmax probe evaluates the curve at 1e18).
		if !(pos < float64(len(cdf)-1)) {
			return cdf[len(cdf)-1]
		}
		i := int(pos)
		frac := pos - float64(i)
		return cdf[i] + frac*(cdf[i+1]-cdf[i])
	}, nil
}

// OptimalMeanPolicy solves problem (3): the policy minimizing the mean
// execution time. It returns the policy and the achieved minimum.
func (s *System) OptimalMeanPolicy() (Policy, float64, error) {
	return s.optimize(policy.ObjMeanTime, 0)
}

// OptimalQoSPolicy solves problem (4): the policy maximizing
// P(T < deadline).
func (s *System) OptimalQoSPolicy(deadline float64) (Policy, float64, error) {
	return s.optimize(policy.ObjQoS, deadline)
}

// OptimalReliabilityPolicy maximizes P(T < ∞).
func (s *System) OptimalReliabilityPolicy() (Policy, float64, error) {
	return s.optimize(policy.ObjReliability, 0)
}

// optimize projects the plan path onto the plain optimizers' answer.
func (s *System) optimize(obj policy.Objective, deadline float64) (Policy, float64, error) {
	pl, err := s.plan(obj, deadline, ReplicationConfig{})
	if err != nil {
		return nil, 0, err
	}
	if s.model.N() != 2 {
		// Multi-server values come from simulation; callers wanting the
		// value should Simulate the returned policy. Report NaN-free zero.
		return pl.policy, 0, nil
	}
	return pl.policy, pl.value, nil
}

// planned is the outcome of one optimization, with everything its public
// projections (the plain optimizers, OptimizeReplicated, Explain) read.
// The diagnostics are always collected: they are observational, so the
// policy and value are the same bits with or without them.
type planned struct {
	policy Policy
	value  float64 // NaN on multi-server systems: their values come from simulation
	// factors are the per-server replication factors the plan runs under:
	// the search's choice when it replicated, the model's declared factors
	// otherwise.
	factors []int
	evals   int

	solver *direct.Solver     // two-server systems
	sweep  *SweepDiagnostics  // two-server plain search
	combos []policy.ReplCombo // two-server joint search
	alg1   *Alg1Diagnostics   // multi-server systems
}

// plan is the one optimizer path: the joint reallocation+replication
// search iff repl.MaxFactor > 1, the plain search — under the model's
// declared factors — otherwise; the exact lattice sweep on two servers,
// Algorithm 1 beyond.
func (s *System) plan(obj policy.Objective, deadline float64, repl ReplicationConfig) (*planned, error) {
	pl := &planned{value: math.NaN()}
	replicating := repl.MaxFactor > 1
	if !replicating {
		for k := range s.initial {
			pl.factors = append(pl.factors, s.model.ReplFactor(k))
		}
	}
	if s.model.N() != 2 {
		pl.alg1 = new(Alg1Diagnostics)
		opts := policy.Alg1Options{Objective: obj, Deadline: deadline, Workers: s.Workers, Span: s.Span, Diag: pl.alg1}
		var err error
		if replicating {
			pl.policy, pl.factors, err = policy.Algorithm1Repl(s.model, s.initial, opts, repl.MaxFactor, repl.Budget)
		} else {
			pl.policy, err = policy.Algorithm1(s.model, s.initial, opts)
		}
		return pl, err
	}

	var err error
	if pl.solver, err = s.solverWithFactor(max(repl.MaxFactor, 1)); err != nil {
		return nil, err
	}
	opts := policy.Options2{Deadline: deadline, Workers: s.Workers, Span: s.Span}
	var res policy.Result2
	if replicating {
		var rres policy.ReplResult2
		rres, err = policy.OptimizeRepl2(pl.solver, s.initial[0], s.initial[1], obj, policy.ReplOptions2{
			Options2: opts, MaxFactor: repl.MaxFactor, Budget: repl.Budget,
		})
		res, pl.factors, pl.combos = rres.Result2, rres.Factors[:], rres.Combos
	} else {
		res, err = policy.Optimize2(pl.solver, s.initial[0], s.initial[1], obj, opts)
		pl.sweep = &res.Diag
	}
	pl.policy, pl.value, pl.evals = Policy2(res.L12, res.L21), res.Value, res.Evaluations
	return pl, err
}

// ReplicationConfig bounds the joint reallocation+replication search:
// how many cancel-on-first-complete copies a server may run per task
// (MaxFactor) and how many extra copies the whole plan may spend
// (Budget; ≤ 0 = unconstrained). See policy.OptimizeRepl2 and
// policy.Algorithm1Repl.
type ReplicationConfig struct {
	// MaxFactor caps the per-server replication factor (≤ 1 = no
	// search over factors: the plain optimizers' plan).
	MaxFactor int
	// Budget caps Σ_k (factor_k − 1), the total extra copies.
	Budget int
}

// ReplicatedPlan is the outcome of a joint search: the reallocation
// policy, the per-server replication factors (entry k is server k's
// factor, 1 = unreplicated), and the achieved objective value
// (NaN for multi-server plans, whose values come from simulation).
type ReplicatedPlan struct {
	Policy  Policy
	Factors []int
	Value   float64
	// Evaluations counts lattice evaluations across every factor
	// combination (two-server plans only).
	Evaluations int
}

// OptimizeReplicated searches jointly over task reallocation and
// per-server replication factors. Two-server systems get the exact
// per-combination Optimize2 sweep (ties favor fewer copies: a plan
// replicates only when strictly better); multi-server systems run
// Algorithm 1 and then assign the copy budget greedily by marginal
// expected-service-time gain. With cfg.MaxFactor ≤ 1 nothing is searched
// over: the result is the plain optimizer's policy and value, bit for
// bit, and Factors are the model's declared factors that plan runs under.
func (s *System) OptimizeReplicated(obj Objective, deadline float64, cfg ReplicationConfig) (*ReplicatedPlan, error) {
	pl, err := s.plan(obj, deadline, cfg)
	if err != nil {
		return nil, err
	}
	return &ReplicatedPlan{Policy: pl.policy, Factors: pl.factors, Value: pl.value, Evaluations: pl.evals}, nil
}

// Objective selects the optimization target for Algorithm1.
type Objective = policy.Objective

// Re-exported objective constants.
const (
	ObjMeanTime    = policy.ObjMeanTime
	ObjQoS         = policy.ObjQoS
	ObjReliability = policy.ObjReliability
)

// Alg1Config configures the multi-server Algorithm 1.
type Alg1Config struct {
	Objective Objective
	// Deadline applies to ObjQoS.
	Deadline float64
	// K bounds the refinement iterations (default 5).
	K int
	// GridN sizes the pairwise solvers (default 4096).
	GridN int
	// Estimates[i][j] is server i's (possibly dated) estimate of server
	// j's queue length; nil = perfect information.
	Estimates [][]int
	// Workers shards the refinement rows (0 = the System's Workers
	// setting, which itself defaults to GOMAXPROCS).
	Workers int
}

// Algorithm1 computes the paper's linear-complexity multi-server DTR
// policy for this system.
func (s *System) Algorithm1(cfg Alg1Config) (Policy, error) {
	workers := cfg.Workers
	if workers == 0 {
		workers = s.Workers
	}
	return policy.Algorithm1(s.model, s.initial, policy.Alg1Options{
		Objective: cfg.Objective,
		Deadline:  cfg.Deadline,
		K:         cfg.K,
		GridN:     cfg.GridN,
		Estimates: cfg.Estimates,
		Workers:   workers,
		Span:      s.Span,
	})
}
