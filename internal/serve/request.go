package serve

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"dtr"
	"dtr/internal/policy"
	"dtr/modelspec"
)

// Request is the JSON body every /v1/<verb> endpoint consumes and what
// Exec takes in-process (cmd/dtrplan's flags and the adapt controller's
// planner fill the same struct). Spec is a full modelspec SystemSpec
// document; the other fields parameterize the verb. This is the one table
// of what each verb reads and what a zero field stands for; fields a verb
// does not read are ignored and excluded from its cache key:
//
//	optimize  grid, objective, deadline, replication
//	explain   grid, objective, deadline, replication, probe
//	metrics   grid, policy, deadline
//	simulate  policy, reps, seed, deadline
//	bounds    grid, policy, deadline
//	cdf       grid, policy, points, tmax
//
// metrics and cdf are exact values, which exist when no server receives
// task groups from more than one sender (every two-server policy); a
// policy that converges several groups on one server is a 400 naming the
// server, and bounds brackets it.
//
//	grid         lattice points of the analytic solvers; 0 = 8192
//	objective    mean | qos | reliability; "" = mean. mean needs reliable
//	             servers, qos a positive deadline
//	deadline     the QoS horizon TM; 0 = none, no QoS is reported
//	policy       "src>dst:count,..." shipments; "" = no reallocation
//	reps, seed   Monte-Carlo replications and seed; 0 = 10000 and 1
//	points       curve samples; 0 = 20
//	tmax         last curve abscissa; 0 = where the curve nears its limit
//	probe        add the half-resolution grid-error probe
//	replication  search per-server replication factors too (ReplRequest)
//
// timeoutMs bounds how long an HTTP caller waits for the result; the
// server clamps it to its -timeout flag.
type Request struct {
	Spec        json.RawMessage `json:"spec"`
	Grid        int             `json:"grid,omitempty"`
	Policy      string          `json:"policy,omitempty"`
	Objective   string          `json:"objective,omitempty"`
	Deadline    float64         `json:"deadline,omitempty"`
	Reps        int             `json:"reps,omitempty"`
	Seed        uint64          `json:"seed,omitempty"`
	Points      int             `json:"points,omitempty"`
	Tmax        float64         `json:"tmax,omitempty"`
	Probe       bool            `json:"probe,omitempty"`
	Replication *ReplRequest    `json:"replication,omitempty"`
	TimeoutMS   int             `json:"timeoutMs,omitempty"`
}

// ReplRequest switches optimize/explain to the joint
// reallocation+replication search: each task on server k may run as up
// to maxFactor cancel-on-first-complete copies, with at most budget
// extra copies across the whole plan (0 = unconstrained). maxFactor 1
// (or an absent block) is the plain search.
type ReplRequest struct {
	MaxFactor int `json:"maxFactor"`
	Budget    int `json:"budget,omitempty"`
}

// What a zero Request field stands for.
const (
	DefaultGrid   = 8192
	defaultReps   = 10000
	defaultSeed   = 1
	defaultPoints = 20
)

// Resource caps of the public endpoint: a shared daemon must not let one
// request commandeer the process with a gigantic lattice or replication
// count. They bind parseRequest only; Exec's callers spend their own
// process.
const (
	minGrid   = 64
	maxGrid   = 1 << 17
	maxReps   = 1_000_000
	maxPoints = 10_000
	// maxReplFactor is tighter than modelspec's cap: the optimizer's
	// factor search is combinatorial in maxFactor, so a public endpoint
	// bounds it harder than a declared (fixed) per-server factor.
	maxReplFactor = 8
)

// badRequest is a client-caused failure (HTTP 400).
type badRequest struct{ msg string }

func (e badRequest) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return badRequest{fmt.Sprintf(format, args...)}
}

// errRange rejects a bounded integer field. It is sent from two places
// with one text: by validate for a value below the floor every caller
// shares, by checkCaps for one above the endpoint's ceiling.
func errRange(field string, lo, hi, got int) error {
	return badRequestf("%s: must be in [%d, %d], got %d", field, lo, hi, got)
}

// canonOpts is the normalized option block hashed into the cache key:
// only the fields the verb consumes, with defaults applied, so requests
// that differ in unused or defaulted fields coalesce.
type canonOpts struct {
	Verb      string  `json:"verb"`
	Grid      int     `json:"grid,omitempty"`
	Policy    string  `json:"policy,omitempty"`
	Objective string  `json:"objective,omitempty"`
	Deadline  float64 `json:"deadline,omitempty"`
	Reps      int     `json:"reps,omitempty"`
	Seed      uint64  `json:"seed,omitempty"`
	Points    int     `json:"points,omitempty"`
	Tmax      float64 `json:"tmax,omitempty"`
	Probe     bool    `json:"probe,omitempty"`
	// Replication fields are set only when the request enables the joint
	// search (maxFactor > 1), so plain requests keep their pre-replication
	// cache keys.
	ReplMaxFactor int `json:"replMaxFactor,omitempty"`
	ReplBudget    int `json:"replBudget,omitempty"`
}

// checkCaps holds the options a verb consumes to the endpoint's resource
// caps.
func (o *canonOpts) checkCaps() error {
	switch {
	case o.Grid != 0 && (o.Grid < minGrid || o.Grid > maxGrid):
		return errRange("grid", minGrid, maxGrid, o.Grid)
	case o.Reps > maxReps:
		return errRange("reps", 0, maxReps, o.Reps)
	case o.Points > maxPoints:
		return errRange("points", 0, maxPoints, o.Points)
	case o.ReplMaxFactor > maxReplFactor:
		return errRange("replication.maxFactor", 1, maxReplFactor, o.ReplMaxFactor)
	}
	return nil
}

// fields is a set of Request field groups.
type fields uint

const (
	fGrid     fields = 1 << iota // grid
	fAnalytic                    // no field: the policy may send each server one group at most
	fPolicy                      // policy
	fPlan                        // objective, deadline (qos), replication
	fProbe                       // probe
	fDeadline                    // deadline
	fSim                         // reps, seed
	fCurve                       // points, tmax
)

// verb is one planning verb: its name (the /v1/<name> endpoint, a batch
// item's "verb", the cmd/dtrplan subcommand), the request fields it reads
// (validate resolves them into the canonical options) and the function
// computing its typed answer from those.
type verb struct {
	name  string
	reads fields
	run   func(sys *dtr.System, pr *parsedRequest) (any, error)
}

// verbs is the verb table, in /v1/ registration order. Everything that
// dispatches on a verb — Exec, the endpoints, /v1/batch — looks it up
// here; Request's doc comment is this table in prose.
var verbs = [...]verb{
	{"optimize", fGrid | fPlan, computeOptimize},
	{"metrics", fGrid | fAnalytic | fPolicy | fDeadline, computeMetrics},
	{"simulate", fPolicy | fSim | fDeadline, computeSimulate},
	{"bounds", fGrid | fPolicy | fDeadline, computeBounds},
	{"cdf", fGrid | fAnalytic | fPolicy | fCurve, computeCDF},
	{"explain", fGrid | fPlan | fProbe, computeExplain},
}

// parsedRequest is a fully validated request, ready to compute: the spec
// decoded and built, the policy parsed against the model. The HTTP
// pipeline adds the canonical fingerprint and the caller's timeout.
type parsedRequest struct {
	verb    *verb
	spec    *modelspec.SystemSpec
	model   *dtr.Model
	initial []int
	policy  dtr.Policy
	obj     dtr.Objective
	opts    canonOpts

	key      string        // canonical fingerprint: cache / coalescing key
	specJSON []byte        // canonical spec document behind key
	optsJSON []byte        // canonical option block hashed into key
	timeout  time.Duration // 0 = server default
}

// validate checks req as a request for the named verb — the checks every
// caller gets, in-process or over HTTP — and resolves the fields the verb
// reads: defaults applied, the policy parsed against the model, values
// that mean nothing rejected. All failures are badRequest errors.
func validate(name string, req *Request) (*parsedRequest, error) {
	var v *verb
	for i := range verbs {
		if verbs[i].name == name {
			v = &verbs[i]
		}
	}
	if v == nil {
		return nil, badRequestf("unknown verb %q", name)
	}
	if len(req.Spec) == 0 {
		return nil, badRequestf("spec: required")
	}
	spec, err := modelspec.Decode(req.Spec)
	if err != nil {
		return nil, badRequest{err.Error()}
	}
	model, initial, err := spec.Build()
	if err != nil {
		return nil, badRequest{err.Error()}
	}
	if req.Grid < 0 {
		return nil, errRange("grid", minGrid, maxGrid, req.Grid)
	}
	if math.IsNaN(req.Deadline) || math.IsInf(req.Deadline, 0) || req.Deadline < 0 {
		return nil, badRequestf("deadline: must be a non-negative finite number, got %g", req.Deadline)
	}
	pr := &parsedRequest{verb: v, spec: spec, model: model, initial: initial, opts: canonOpts{Verb: name}}
	opts, n := &pr.opts, model.N()

	if v.reads&fGrid != 0 {
		opts.Grid = cmp.Or(req.Grid, DefaultGrid)
	}
	if v.reads&fPolicy != 0 {
		pr.policy, err = dtr.ParsePolicy(req.Policy, n)
		if err != nil {
			return nil, badRequest{err.Error()}
		}
		if err := pr.policy.Validate(initial); err != nil {
			return nil, badRequest{"policy: " + err.Error()}
		}
		opts.Policy = canonicalPolicyString(pr.policy)
		if k := pr.policy.Converging(); v.reads&fAnalytic != 0 && k >= 0 {
			return nil, badRequestf("%s: more than one task group converges on server %d, so the exact value depends on their arrival order; use bounds or simulate", name, k)
		}
	}
	if v.reads&fPlan != 0 {
		pr.obj, opts.Objective, err = policy.ParseObjective(req.Objective, req.Deadline)
		if err != nil {
			return nil, badRequest{err.Error()}
		}
		if pr.obj == dtr.ObjMeanTime && !model.Reliable() {
			return nil, badRequestf("objective: mean is undefined with failure-prone servers; use qos or reliability")
		}
		if pr.obj == dtr.ObjQoS {
			opts.Deadline = req.Deadline
		}
		if r := req.Replication; r != nil {
			if r.MaxFactor < 1 {
				return nil, errRange("replication.maxFactor", 1, maxReplFactor, r.MaxFactor)
			}
			if r.Budget < 0 {
				return nil, badRequestf("replication.budget: must be non-negative (0 = unconstrained), got %d", r.Budget)
			}
			if r.MaxFactor > 1 {
				opts.ReplMaxFactor, opts.ReplBudget = r.MaxFactor, r.Budget
			}
		}
	}
	if v.reads&fProbe != 0 {
		opts.Probe = req.Probe
	}
	if v.reads&fDeadline != 0 {
		opts.Deadline = req.Deadline
	}
	if v.reads&fSim != 0 {
		if req.Reps < 0 {
			return nil, errRange("reps", 0, maxReps, req.Reps)
		}
		opts.Reps = cmp.Or(req.Reps, defaultReps)
		opts.Seed = cmp.Or(req.Seed, defaultSeed)
	}
	if v.reads&fCurve != 0 {
		if req.Points < 0 {
			return nil, errRange("points", 0, maxPoints, req.Points)
		}
		opts.Points = cmp.Or(req.Points, defaultPoints)
		if math.IsNaN(req.Tmax) || math.IsInf(req.Tmax, 0) || req.Tmax < 0 {
			return nil, badRequestf("tmax: must be a non-negative finite number, got %g", req.Tmax)
		}
		opts.Tmax = req.Tmax
	}
	return pr, nil
}

// parseRequest is validate for the shared endpoint: it additionally holds
// the request to the resource caps and derives the canonical fingerprint.
// All failures are badRequest errors (HTTP 400).
func parseRequest(name string, req *Request) (*parsedRequest, error) {
	pr, err := validate(name, req)
	if err != nil {
		return nil, err
	}
	if err := pr.opts.checkCaps(); err != nil {
		return nil, err
	}
	if req.TimeoutMS < 0 {
		return nil, badRequestf("timeoutMs: must be non-negative, got %d", req.TimeoutMS)
	}
	pr.timeout = time.Duration(req.TimeoutMS) * time.Millisecond

	pr.optsJSON, err = json.Marshal(pr.opts)
	if err != nil {
		return nil, fmt.Errorf("serve: encode options: %w", err)
	}
	pr.key, err = pr.spec.Fingerprint([]byte(name), pr.optsJSON)
	if err != nil {
		return nil, badRequest{err.Error()}
	}
	pr.specJSON, err = pr.spec.CanonicalJSON()
	if err != nil {
		return nil, badRequest{err.Error()}
	}
	return pr, nil
}

// canonicalPolicyString renders a parsed policy deterministically for the
// cache key (""— not "(no reallocation)" — for the zero policy, so the
// key form is independent of display conventions).
func canonicalPolicyString(p dtr.Policy) string {
	s := dtr.FormatPolicy(p)
	if s == "(no reallocation)" {
		return ""
	}
	return s
}

// Num is a float64 that marshals non-finite values as JSON null, keeping
// response bodies valid (and byte-deterministic) when a metric is
// undefined — e.g. mean time with failure-prone servers.
type Num float64

// MarshalJSON implements json.Marshaler.
func (x Num) MarshalJSON() ([]byte, error) {
	f := float64(x)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(f)
}
