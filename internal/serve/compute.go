package serve

import (
	"math"

	"dtr"
	"dtr/internal/obs"
	"dtr/internal/solversrc"
)

// OptimizeResponse answers /v1/optimize.
type OptimizeResponse struct {
	Objective string  `json:"objective"`
	Policy    string  `json:"policy"`
	Matrix    [][]int `json:"matrix"`
	// Value is the achieved optimum on two-server systems; null for
	// multi-server policies (evaluate those with /v1/simulate).
	Value Num `json:"value"`
	// Factors are the chosen per-server replication factors; present
	// exactly when the request enabled the joint search.
	Factors []int `json:"factors,omitempty"`
}

// MetricsResponse answers /v1/metrics (the exact analytic metrics).
type MetricsResponse struct {
	Policy      string `json:"policy"`
	Reliability Num    `json:"reliability"`
	// MeanTime is null when any server can fail (the mean is undefined).
	MeanTime Num `json:"meanTime"`
	// QoS is null unless the request set a deadline.
	QoS      Num     `json:"qos"`
	Deadline float64 `json:"deadline,omitempty"`
}

// SimulateResponse answers /v1/simulate.
type SimulateResponse struct {
	Policy          string `json:"policy"`
	Reps            int    `json:"reps"`
	Seed            uint64 `json:"seed"`
	Reliability     Num    `json:"reliability"`
	ReliabilityHalf Num    `json:"reliabilityHalf"`
	MeanTime        Num    `json:"meanTime"`
	MeanTimeHalf    Num    `json:"meanTimeHalf"`
	QoS             Num    `json:"qos"`
	QoSHalf         Num    `json:"qosHalf"`
	Completed       int    `json:"completed"`
}

// BoundMetrics is one side of a bounds bracket.
type BoundMetrics struct {
	Mean        Num `json:"mean"`
	QoS         Num `json:"qos"`
	Reliability Num `json:"reliability"`
}

// BoundsResponse answers /v1/bounds.
type BoundsResponse struct {
	Policy      string       `json:"policy"`
	Exact       bool         `json:"exact"`
	Optimistic  BoundMetrics `json:"optimistic"`
	Pessimistic BoundMetrics `json:"pessimistic"`
}

// CDFPoint is one sample of the completion-time distribution.
type CDFPoint struct {
	T float64 `json:"t"`
	P Num     `json:"p"`
}

// CDFResponse answers /v1/cdf.
type CDFResponse struct {
	Policy string     `json:"policy"`
	Points []CDFPoint `json:"points"`
}

// Exec answers one verb in-process: the validation and the run function
// behind POST /v1/<verb>, without what belongs to a shared endpoint — the
// resource caps, the caches, admission. The answer is the verb's typed
// response (*OptimizeResponse, *dtr.Explain, ...), the value the endpoint
// marshals; workers and span are compute's.
func Exec(verb string, req *Request, workers int, span *obs.Span) (any, error) {
	pr, err := validate(verb, req)
	if err != nil {
		return nil, err
	}
	return compute(pr, workers, span, nil)
}

// compute runs the verb's solver work for a validated request. Workers
// is the solver worker budget; span (nil = tracing off) receives the
// solver-phase sub-spans; solvers (nil = tier off) is where the
// request's System gets its canonical solver. Every error it returns is
// an internal failure (HTTP 500): client-caused conditions were rejected
// by validate.
func compute(pr *parsedRequest, workers int, span *obs.Span, solvers *solverLease) (any, error) {
	sys, err := dtr.NewSystem(pr.model, pr.initial)
	if err != nil {
		return nil, err
	}
	if solvers != nil {
		solversrc.Attach(sys, solvers.solver)
	}
	if pr.opts.Grid > 0 {
		sys.GridN = pr.opts.Grid
	}
	sys.Workers = workers
	sys.Span = span
	return pr.verb.run(sys, pr)
}

// replication is the joint-search block of a plan request (the zero
// value is the plain search).
func (pr *parsedRequest) replication() *dtr.ReplicationConfig {
	return &dtr.ReplicationConfig{MaxFactor: pr.opts.ReplMaxFactor, Budget: pr.opts.ReplBudget}
}

// computeExplain returns the versioned explain artifact verbatim: the
// schema is owned by package dtr so dtrplan -explain and /v1/explain
// emit identical documents for identical inputs.
func computeExplain(sys *dtr.System, pr *parsedRequest) (any, error) {
	return sys.Explain(dtr.ExplainOptions{
		Objective:   pr.opts.Objective,
		Deadline:    pr.opts.Deadline,
		Probe:       pr.opts.Probe,
		Replication: pr.replication(),
	})
}

func computeOptimize(sys *dtr.System, pr *parsedRequest) (any, error) {
	plan, err := sys.OptimizeReplicated(pr.obj, pr.opts.Deadline, *pr.replication())
	if err != nil {
		return nil, err
	}
	resp := &OptimizeResponse{
		Objective: pr.opts.Objective,
		Policy:    dtr.FormatPolicy(plan.Policy),
		Matrix:    plan.Policy,
		Value:     Num(plan.Value), // NaN → null for multi-server plans
	}
	if pr.opts.ReplMaxFactor > 1 {
		resp.Factors = plan.Factors
	}
	return resp, nil
}

func computeMetrics(sys *dtr.System, pr *parsedRequest) (any, error) {
	rel, err := sys.Reliability(pr.policy)
	if err != nil {
		return nil, err
	}
	resp := &MetricsResponse{
		Policy:      dtr.FormatPolicy(pr.policy),
		Reliability: Num(rel),
		MeanTime:    Num(math.NaN()),
		QoS:         Num(math.NaN()),
		Deadline:    pr.opts.Deadline,
	}
	if sys.Model().Reliable() {
		mean, err := sys.MeanTime(pr.policy)
		if err != nil {
			return nil, err
		}
		resp.MeanTime = Num(mean)
	}
	if pr.opts.Deadline > 0 {
		q, err := sys.QoS(pr.policy, pr.opts.Deadline)
		if err != nil {
			return nil, err
		}
		resp.QoS = Num(q)
	}
	return resp, nil
}

func computeSimulate(sys *dtr.System, pr *parsedRequest) (any, error) {
	est, err := sys.Simulate(pr.policy, dtr.SimOptions{
		Reps:     pr.opts.Reps,
		Seed:     pr.opts.Seed,
		Deadline: pr.opts.Deadline,
	})
	if err != nil {
		return nil, err
	}
	return &SimulateResponse{
		Policy:          dtr.FormatPolicy(pr.policy),
		Reps:            est.Reps,
		Seed:            pr.opts.Seed,
		Reliability:     Num(est.Reliability),
		ReliabilityHalf: Num(est.ReliabilityHalf),
		MeanTime:        Num(est.MeanTime),
		MeanTimeHalf:    Num(est.MeanTimeHalf),
		QoS:             Num(est.QoS),
		QoSHalf:         Num(est.QoSHalf),
		Completed:       est.Completed,
	}, nil
}

func computeBounds(sys *dtr.System, pr *parsedRequest) (any, error) {
	b, err := sys.MetricBounds(pr.policy, pr.opts.Deadline)
	if err != nil {
		return nil, err
	}
	side := func(m dtr.BoundMetrics) BoundMetrics {
		return BoundMetrics{Mean: Num(m.Mean), QoS: Num(m.QoS), Reliability: Num(m.Reliability)}
	}
	return &BoundsResponse{
		Policy:      dtr.FormatPolicy(pr.policy),
		Exact:       b.Exact,
		Optimistic:  side(b.Optimistic),
		Pessimistic: side(b.Pessimistic),
	}, nil
}

func computeCDF(sys *dtr.System, pr *parsedRequest) (any, error) {
	cdf, err := sys.CompletionCDF(pr.policy)
	if err != nil {
		return nil, err
	}
	end := pr.opts.Tmax
	if end <= 0 {
		// Walk the curve out to where it has nearly reached its limit
		// (the reliability: with failure-prone servers the curve
		// saturates below 1).
		limit := cdf(1e18)
		end = 1
		if limit > 1e-9 {
			for cdf(end) < 0.995*limit && end < 1e9 {
				end *= 2
			}
			end *= 1.25
		} else {
			end = 100
		}
	}
	resp := &CDFResponse{Policy: dtr.FormatPolicy(pr.policy)}
	for i := 1; i <= pr.opts.Points; i++ {
		t := end * float64(i) / float64(pr.opts.Points)
		resp.Points = append(resp.Points, CDFPoint{T: t, P: Num(cdf(t))})
	}
	return resp, nil
}
