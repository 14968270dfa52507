package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"time"

	"dtr/internal/obs"
	"dtr/internal/serve"
	"dtr/modelspec"
)

// The two paper scenarios every planning workload perturbs.

// severeSpec is the severe-delay Pareto scenario of §III-A1: 100+50
// tasks, service means 2 s and 1 s, 3 s per task in transit, reliable
// servers (so the mean execution time is defined).
func severeSpec() modelspec.SystemSpec {
	return modelspec.SystemSpec{
		Servers: []modelspec.ServerSpec{
			{Queue: 100, Service: modelspec.DistSpec{Type: "pareto", Mean: 2, Alpha: 2.5}},
			{Queue: 50, Service: modelspec.DistSpec{Type: "pareto", Mean: 1, Alpha: 2.5}},
		},
		Transfer: modelspec.TransferSpec{DistSpec: modelspec.DistSpec{Type: "pareto", Alpha: 2.5}, PerTaskMean: 3},
	}
}

// testbedSpec is the failure-prone fitted testbed of §III-B: 50+25
// tasks, Pareto services, shifted-gamma transfers, exponential failures
// (examples/specs/testbed.json).
func testbedSpec() modelspec.SystemSpec {
	sg := func(perTask float64) modelspec.TransferSpec {
		return modelspec.TransferSpec{
			DistSpec:    modelspec.DistSpec{Type: "shifted-gamma", Shape: 2, ShiftFrac: 0.55},
			PerTaskMean: perTask,
		}
	}
	fn := sg(0.313)
	return modelspec.SystemSpec{
		Servers: []modelspec.ServerSpec{
			{Queue: 50, Service: modelspec.DistSpec{Type: "pareto", Mean: 4.858, Alpha: 2.614},
				Failure: &modelspec.DistSpec{Type: "exponential", Mean: 300}},
			{Queue: 25, Service: modelspec.DistSpec{Type: "pareto", Mean: 2.357, Alpha: 2.614},
				Failure: &modelspec.DistSpec{Type: "exponential", Mean: 150}},
		},
		Transfer: sg(1.207),
		FN:       &fn,
	}
}

// scenario couples a spec with the fixed request parameters used on it.
type scenario struct {
	name      string
	spec      func() modelspec.SystemSpec
	objective string  // first optimize slot: mean needs reliable servers
	policy    string  // the policy metrics/cdf/simulate evaluate
	deadline  float64 // QoS deadline
}

var scenarios = []scenario{
	{"severe", severeSpec, "mean", "0>1:20", 180},
	{"testbed", testbedSpec, "reliability", "0>1:10", 200},
}

// perturb returns a copy of s with every mean scaled by an independent
// factor in [1−eps, 1+eps]. Queue lengths stay, so the solver work per
// request is the same for every seed; only the numbers — and therefore
// every cache key — differ.
func perturb(s modelspec.SystemSpec, r *rand.Rand, eps float64) modelspec.SystemSpec {
	scale := func(x float64) float64 {
		return math.Round(x*(1+eps*(2*r.Float64()-1))*1e6) / 1e6
	}
	out := s
	out.Servers = append([]modelspec.ServerSpec(nil), s.Servers...)
	for i := range out.Servers {
		out.Servers[i].Service.Mean = scale(out.Servers[i].Service.Mean)
		if f := out.Servers[i].Failure; f != nil {
			ff := *f
			ff.Mean = scale(ff.Mean)
			out.Servers[i].Failure = &ff
		}
	}
	out.Transfer.PerTaskMean = scale(out.Transfer.PerTaskMean)
	if s.FN != nil {
		fn := *s.FN
		fn.PerTaskMean = scale(fn.PerTaskMean)
		out.FN = &fn
	}
	return out
}

// server is one in-process HTTP server on a real loopback TCP port, with
// the client that talks to it.
type server struct {
	reg    *obs.Registry
	base   string
	client *http.Client
	srv    *http.Server
	served chan error
}

// bootPlan wires dtrserved exactly as cmd/dtrserved does — one registry
// installed as the process default, serve.New on it, the service and
// telemetry endpoints on one mux. The serve tracer stays off.
func bootPlan() (*server, error) {
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	svc := serve.New(serve.Config{Registry: reg})
	mux := http.NewServeMux()
	svc.Register(mux)
	obs.Register(mux, reg, false)
	return listen(reg, mux)
}

// listen serves mux on a fresh loopback port.
func listen(reg *obs.Registry, mux *http.ServeMux) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	return serveOn(ln, reg, mux), nil
}

// serveOn serves mux on an already bound listener.
func serveOn(ln net.Listener, reg *obs.Registry, mux *http.ServeMux) *server {
	st := &server{
		reg:  reg,
		base: "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: 8},
		},
		srv:    &http.Server{Handler: mux},
		served: make(chan error, 1),
	}
	go func() { st.served <- st.srv.Serve(ln) }()
	return st
}

// close shuts the listener down and waits for Serve to return.
func (st *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = st.srv.Shutdown(ctx) // a timed-out drain still closes the listener
	<-st.served
	st.client.CloseIdleConnections()
}

// do sends one request and reads the whole reply; the returned duration
// is send → last body byte.
func (st *server) do(method, path string, body []byte) ([]byte, time.Duration, error) {
	t0 := time.Now()
	req, err := http.NewRequest(method, st.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return nil, time.Since(t0), err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return nil, d, fmt.Errorf("%s: read reply: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return b, d, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, d, nil
}

func (st *server) post(path string, body []byte) ([]byte, time.Duration, error) {
	return st.do(http.MethodPost, path, body)
}

// counter reads one registry counter.
func counter(reg *obs.Registry, name string) uint64 { return reg.Counter(name).Value() }

// planReq is one generated planning request.
type planReq struct {
	verb string
	spec modelspec.SystemSpec
	req  serve.Request
	body []byte
	// anchor, when set, names the testdata/anchors.json entry the reply
	// must reproduce.
	anchor string
	// hit marks a request that must be answered from the result cache.
	hit bool
}

func newPlanReq(verb string, spec modelspec.SystemSpec, req serve.Request) (planReq, error) {
	sb, err := json.Marshal(spec)
	if err != nil {
		return planReq{}, err
	}
	req.Spec = sb
	body, err := json.Marshal(req)
	if err != nil {
		return planReq{}, err
	}
	return planReq{verb: verb, spec: spec, req: req, body: body}, nil
}

// Reply shapes, decoded leniently: the benchmark checks properties of
// the numbers, not the byte layout, so a faster kernel can pass without
// the benchmark changing.
type optimizeReply struct {
	Objective string   `json:"objective"`
	Matrix    [][]int  `json:"matrix"`
	Value     *float64 `json:"value"`
	Factors   []int    `json:"factors"`
}

type metricsReply struct {
	Reliability *float64 `json:"reliability"`
	MeanTime    *float64 `json:"meanTime"`
	QoS         *float64 `json:"qos"`
}

type cdfReply struct {
	Points []struct {
		T float64  `json:"t"`
		P *float64 `json:"p"`
	} `json:"points"`
}

type simulateReply struct {
	Reps        int      `json:"reps"`
	Completed   int      `json:"completed"`
	Reliability *float64 `json:"reliability"`
}

type explainReply struct {
	Policy [][]int  `json:"policy"`
	Value  *float64 `json:"value"`
}

type boundsReply struct {
	Exact      bool `json:"exact"`
	Optimistic struct {
		Mean *float64 `json:"mean"`
	} `json:"optimistic"`
}

func prob(name string, p *float64) error {
	if p == nil || math.IsNaN(*p) || *p < -1e-9 || *p > 1+1e-9 {
		return fmt.Errorf("%s is not a probability: %v", name, fmtPtr(p))
	}
	return nil
}

func fmtPtr(p *float64) string {
	if p == nil {
		return "null"
	}
	return fmt.Sprint(*p)
}

// relDiff is |a−b| relative to the larger magnitude.
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	return d / math.Max(math.Abs(a), math.Abs(b))
}

// checkOptimize validates an optimize reply for a two-server system with
// queues (m1, m2), and against the named anchor when anchor is not "".
func checkOptimize(body []byte, anchor string, m1, m2 int, anchors *anchorSet) (optimizeReply, error) {
	var r optimizeReply
	if err := json.Unmarshal(body, &r); err != nil {
		return r, fmt.Errorf("optimize reply: %w", err)
	}
	if len(r.Matrix) != 2 || len(r.Matrix[0]) != 2 || len(r.Matrix[1]) != 2 {
		return r, fmt.Errorf("optimize reply: matrix is not 2×2: %v", r.Matrix)
	}
	l12, l21 := r.Matrix[0][1], r.Matrix[1][0]
	if l12 < 0 || l12 > m1 || l21 < 0 || l21 > m2 {
		return r, fmt.Errorf("optimize reply: policy (%d, %d) infeasible for queues (%d, %d)", l12, l21, m1, m2)
	}
	if r.Value == nil || math.IsNaN(*r.Value) || math.IsInf(*r.Value, 0) {
		return r, fmt.Errorf("optimize reply: value %s", fmtPtr(r.Value))
	}
	if r.Objective == "mean" {
		if *r.Value <= 0 {
			return r, fmt.Errorf("optimize reply: mean time %g", *r.Value)
		}
	} else if err := prob("optimize value", r.Value); err != nil {
		return r, err
	}
	if anchor != "" {
		if err := anchors.check(anchor, r.Matrix, *r.Value); err != nil {
			return r, err
		}
	}
	return r, nil
}

func checkMetrics(body []byte, reliable bool) (metricsReply, error) {
	var r metricsReply
	if err := json.Unmarshal(body, &r); err != nil {
		return r, fmt.Errorf("metrics reply: %w", err)
	}
	if err := prob("reliability", r.Reliability); err != nil {
		return r, err
	}
	if reliable && (r.MeanTime == nil || !(*r.MeanTime > 0)) {
		return r, fmt.Errorf("metrics reply: meanTime %s on a reliable system", fmtPtr(r.MeanTime))
	}
	if r.QoS != nil {
		if err := prob("qos", r.QoS); err != nil {
			return r, err
		}
	}
	return r, nil
}

// checkCDF requires a curve of the requested length, monotone in [0, 1].
func checkCDF(body []byte, points int) error {
	var r cdfReply
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("cdf reply: %w", err)
	}
	if len(r.Points) != points {
		return fmt.Errorf("cdf reply: %d points, want %d", len(r.Points), points)
	}
	prev := 0.0
	for i, pt := range r.Points {
		if err := prob("cdf point", pt.P); err != nil {
			return err
		}
		if *pt.P < prev-1e-12 {
			return fmt.Errorf("cdf reply: not monotone at point %d (%g after %g)", i, *pt.P, prev)
		}
		prev = *pt.P
	}
	return nil
}

func checkSimulate(body []byte, reps int) error {
	var r simulateReply
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("simulate reply: %w", err)
	}
	if r.Reps != reps || r.Completed < 0 || r.Completed > reps {
		return fmt.Errorf("simulate reply: reps %d completed %d, want reps %d", r.Reps, r.Completed, reps)
	}
	return prob("simulated reliability", r.Reliability)
}

// policyString renders a 2×2 matrix in the request syntax; unlike
// dtr.FormatPolicy it renders the zero policy as "", which is what a
// request must carry.
func policyString(m [][]int) string {
	s := ""
	for i := range m {
		for j, l := range m[i] {
			if l > 0 {
				if s != "" {
					s += ","
				}
				s += fmt.Sprintf("%d>%d:%d", i, j, l)
			}
		}
	}
	return s
}

// hashBodies is the input_sha256 of a generated request list.
func hashBodies(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ---------------------------------------------------------------- plan_cold

// coldVerbs is the round-robin verb mix of plan_cold; the second
// optimize slot asks for the QoS objective.
var coldVerbs = []string{"optimize", "metrics", "optimize", "cdf", "simulate"}

// coldRequest builds request i of the plan_cold list: verb i mod 5,
// scenario (i/5) mod 2, grid (i/10) mod 2 — so every 20 consecutive
// requests carry the same mix — on a model perturbed from the seed. The
// first optimize of each (scenario, grid) pair (i = 0, 5, 10, 15) runs
// on the unperturbed paper spec and must reproduce its anchor.
func coldRequest(i int, r *rand.Rand, p profile) (planReq, error) {
	slot := i % len(coldVerbs)
	verb := coldVerbs[slot]
	sc := scenarios[(i/5)%2]
	grid := p.grids[(i/10)%2]
	spec := sc.spec()
	anchor := ""
	if slot == 0 && i < 20 {
		anchor = fmt.Sprintf("optimize/%s/%d/%s", sc.name, grid, sc.objective)
	} else {
		spec = perturb(spec, r, 0.05)
	}
	req := serve.Request{Grid: grid}
	switch slot {
	case 0:
		req.Objective = sc.objective
	case 2:
		req.Objective, req.Deadline = "qos", sc.deadline
	case 1:
		req.Policy, req.Deadline = sc.policy, sc.deadline
	case 3:
		req.Policy, req.Points = sc.policy, 20
	case 4:
		req.Policy, req.Reps, req.Seed, req.Deadline = sc.policy, p.simReps, uint64(i)+1, sc.deadline
	}
	pr, err := newPlanReq(verb, spec, req)
	pr.anchor = anchor
	return pr, err
}

// checkCold validates the reply to a plan_cold request.
func checkCold(pr planReq, body []byte, anchors *anchorSet) error {
	srv := pr.spec.Servers
	switch pr.verb {
	case "optimize":
		_, err := checkOptimize(body, pr.anchor, srv[0].Queue, srv[1].Queue, anchors)
		return err
	case "metrics":
		_, err := checkMetrics(body, srv[0].Failure == nil)
		return err
	case "cdf":
		return checkCDF(body, pr.req.Points)
	case "simulate":
		return checkSimulate(body, pr.req.Reps)
	}
	return fmt.Errorf("unexpected verb %q", pr.verb)
}

// warmUp sends a few planning requests on models outside the measured
// list, so listener, connection pool, registry handles and the runtime's
// lazy set-up are all in place before the first timed request.
func warmUp(st *server, seed uint64, p profile) error {
	r := rand.New(rand.NewPCG(seed, 0x77a2))
	for i := 0; i < len(coldVerbs); i++ {
		pr, err := coldRequest(20+i, r, p)
		if err != nil {
			return err
		}
		if _, _, err := st.post("/v1/"+pr.verb, pr.body); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func setupPlanCold(seed uint64, p profile) (*instance, error) {
	anchors, err := loadAnchors()
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewPCG(seed, 0xc01d))
	reqs := make([]planReq, p.coldUnits)
	bodies := make([][]byte, len(reqs))
	for i := range reqs {
		if reqs[i], err = coldRequest(i, r, p); err != nil {
			return nil, err
		}
		bodies[i] = reqs[i].body
	}
	st, err := bootPlan()
	if err != nil {
		return nil, err
	}
	if err := warmUp(st, seed, p); err != nil {
		st.close()
		return nil, err
	}
	return &instance{
		units:    len(reqs),
		inputSHA: hashBodies(bodies...),
		counts:   map[string]int{"requests": len(reqs)},
		reg:      st.reg,
		close:    st.close,
		run: func(i int, rec *recorder) {
			planOp(st, reqs[i], rec, i, func(body []byte) error { return checkCold(reqs[i], body, anchors) })
		},
	}, nil
}

// planOp sends one planning request as one operation. In the traced run
// it also records the root / serve.http / replay span tree.
func planOp(st *server, pr planReq, rec *recorder, opID int, check func([]byte) error) []byte {
	root := rec.tr.start("op."+pr.verb, nil, opID)
	call := rec.tr.start("serve.http", root, opID)
	body, d, err := st.post("/v1/"+pr.verb, pr.body)
	call.end()
	if err == nil {
		err = check(body)
	}
	rec.op(d, err)
	if rec.tr != nil && err == nil {
		replayPlan(rec.tr, root, opID, pr)
	}
	root.end()
	return body
}

// -------------------------------------------------------------- plan_fanout

// fanoutSession is one model and the eight requests a controller makes
// about it, each a result-cache miss that shares the model.
type fanoutSession struct {
	spec modelspec.SystemSpec
	body []byte // the spec document, for the input hash
}

const fanoutSteps = 8

func setupPlanFanout(seed uint64, p profile) (*instance, error) {
	anchors, err := loadAnchors()
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewPCG(seed, 0xfa40))
	sessions := make([]fanoutSession, p.fanoutUnits)
	bodies := make([][]byte, len(sessions))
	for i := range sessions {
		sessions[i].spec = perturb(severeSpec(), r, 0.05)
		if sessions[i].body, err = json.Marshal(sessions[i].spec); err != nil {
			return nil, err
		}
		bodies[i] = sessions[i].body
	}
	st, err := bootPlan()
	if err != nil {
		return nil, err
	}
	if err := warmUp(st, seed, p); err != nil {
		st.close()
		return nil, err
	}
	grid := p.grids[0]
	return &instance{
		units:    len(sessions),
		inputSHA: hashBodies(bodies...),
		counts:   map[string]int{"sessions": len(sessions), "requests_per_session": fanoutSteps},
		reg:      st.reg,
		close:    st.close,
		run: func(i int, rec *recorder) {
			runFanout(st, sessions[i].spec, grid, rec, i*fanoutSteps, anchors)
		},
	}, nil
}

// runFanout plays one session in order, each request one operation:
// optimize(mean) → metrics at the returned policy → cdf → explain →
// metrics at a second policy → bounds → optimize(qos) → optimize with
// replication. Later requests are built from earlier replies, and the
// replies are cross-checked against each other.
func runFanout(st *server, spec modelspec.SystemSpec, grid int, rec *recorder, opID int, anchors *anchorSet) {
	const deadline = 180
	m1, m2 := spec.Servers[0].Queue, spec.Servers[1].Queue
	step := func(n int, verb string, req serve.Request, check func([]byte) error) []byte {
		req.Grid = grid
		pr, err := newPlanReq(verb, spec, req)
		if err != nil {
			rec.op(0, err)
			return nil
		}
		return planOp(st, pr, rec, opID+n, check)
	}

	var opt optimizeReply
	step(0, "optimize", serve.Request{Objective: "mean"}, func(b []byte) (err error) {
		opt, err = checkOptimize(b, "", m1, m2, anchors)
		return err
	})
	if opt.Value == nil {
		return // the session cannot continue without the first policy
	}
	best, pol := *opt.Value, policyString(opt.Matrix)

	step(1, "metrics", serve.Request{Policy: pol, Deadline: deadline}, func(b []byte) error {
		m, err := checkMetrics(b, true)
		if err != nil {
			return err
		}
		if d := relDiff(*m.MeanTime, best); d > 1e-9 {
			return fmt.Errorf("metrics.meanTime %.12g at the optimal policy differs from optimize.value %.12g by %.3g", *m.MeanTime, best, d)
		}
		return nil
	})
	step(2, "cdf", serve.Request{Policy: pol, Points: 20}, func(b []byte) error { return checkCDF(b, 20) })
	step(3, "explain", serve.Request{Objective: "mean"}, func(b []byte) error {
		var e explainReply
		if err := json.Unmarshal(b, &e); err != nil {
			return fmt.Errorf("explain reply: %w", err)
		}
		if policyString(e.Policy) != pol || e.Value == nil || relDiff(*e.Value, best) > 1e-9 {
			return fmt.Errorf("explain (%s, %s) disagrees with optimize (%s, %.12g)", policyString(e.Policy), fmtPtr(e.Value), pol, best)
		}
		return nil
	})
	// A second policy, one task further along L12 (or back, at the edge):
	// it cannot beat the optimum.
	other := [][]int{{0, opt.Matrix[0][1] + 1}, {opt.Matrix[1][0], 0}}
	if other[0][1] > m1 {
		other[0][1] = m1 - 1
	}
	step(4, "metrics", serve.Request{Policy: policyString(other), Deadline: deadline}, func(b []byte) error {
		m, err := checkMetrics(b, true)
		if err != nil {
			return err
		}
		if *m.MeanTime < best*(1-1e-9) {
			return fmt.Errorf("policy %s has mean %.12g, below the reported optimum %.12g", policyString(other), *m.MeanTime, best)
		}
		return nil
	})
	step(5, "bounds", serve.Request{Policy: pol, Deadline: deadline}, func(b []byte) error {
		var bd boundsReply
		if err := json.Unmarshal(b, &bd); err != nil {
			return fmt.Errorf("bounds reply: %w", err)
		}
		// The batch-arrival solver discretizes differently; on a
		// two-server system its bracket is exact and must sit on the
		// canonical solver's value to within discretization error.
		if !bd.Exact || bd.Optimistic.Mean == nil || relDiff(*bd.Optimistic.Mean, best) > 0.02 {
			return fmt.Errorf("bounds (exact=%v, mean=%s) far from optimize.value %.6g", bd.Exact, fmtPtr(bd.Optimistic.Mean), best)
		}
		return nil
	})
	step(6, "optimize", serve.Request{Objective: "qos", Deadline: deadline}, func(b []byte) error {
		_, err := checkOptimize(b, "", m1, m2, anchors)
		return err
	})
	step(7, "optimize", serve.Request{Objective: "mean", Replication: &serve.ReplRequest{MaxFactor: 2, Budget: 1}}, func(b []byte) error {
		rp, err := checkOptimize(b, "", m1, m2, anchors)
		if err != nil {
			return err
		}
		extra := 0
		for _, f := range rp.Factors {
			extra += f - 1
		}
		if len(rp.Factors) != 2 || extra > 1 {
			return fmt.Errorf("replicated optimize: factors %v exceed budget 1", rp.Factors)
		}
		if *rp.Value > best*(1+1e-9) {
			return fmt.Errorf("replicated optimum %.12g is worse than the plain optimum %.12g", *rp.Value, best)
		}
		return nil
	})
}

// ---------------------------------------------------------------- plan_warm

func setupPlanWarm(seed uint64, p profile) (*instance, error) {
	r := rand.New(rand.NewPCG(seed, 0x3a93))
	type key struct {
		pr   planReq
		want []byte // the pre-fill reply
	}
	keys := make([]key, p.warmKeys)
	var err error
	for k := range keys {
		if keys[k].pr, err = warmKey(k, r, p); err != nil {
			return nil, err
		}
	}
	// Each key is requested under many spellings of the same document.
	type spelled struct {
		key  int
		body []byte
	}
	spellings := make([]spelled, p.warmSpellings)
	bodies := make([][]byte, len(spellings))
	for i := range spellings {
		k := i % len(keys)
		spellings[i] = spelled{k, respell(keys[k].pr, r)}
		bodies[i] = spellings[i].body
	}

	st, err := bootPlan()
	if err != nil {
		return nil, err
	}
	// Pre-fill: the canonical spelling of every key, computed once.
	for k := range keys {
		if keys[k].want, _, err = st.post("/v1/"+keys[k].pr.verb, keys[k].pr.body); err != nil {
			st.close()
			return nil, fmt.Errorf("pre-fill: %w", err)
		}
	}
	computes := counter(st.reg, "dtr_serve_computes_total")
	return &instance{
		units:    len(spellings),
		cyclic:   true,
		inputSHA: hashBodies(bodies...),
		counts:   map[string]int{"keys": len(keys), "spellings": len(spellings)},
		reg:      st.reg,
		close:    st.close,
		run: func(i int, rec *recorder) {
			sp := spellings[i]
			pr := keys[sp.key].pr
			pr.body, pr.hit = sp.body, true
			planOp(st, pr, rec, i, func(body []byte) error {
				if !bytes.Equal(body, keys[sp.key].want) {
					return fmt.Errorf("spelling %d of key %d answered different bytes than the pre-fill", i, sp.key)
				}
				return nil
			})
		},
		finish: func() error {
			if n := counter(st.reg, "dtr_serve_computes_total") - computes; n != 0 {
				return fmt.Errorf("%d requests missed the cache and were recomputed", n)
			}
			return nil
		},
	}, nil
}

// warmKey builds cache key k: verbs round-robin on perturbed severe-delay
// models, at the small pre-fill grid — the hit path never reaches the
// solver, so the grid only sets how long set-up takes. Service shapes
// stay at the family default so spellings may omit them.
func warmKey(k int, r *rand.Rand, p profile) (planReq, error) {
	verbs := []string{"optimize", "metrics", "cdf", "simulate"}
	verb := verbs[k%len(verbs)]
	req := serve.Request{Grid: p.warmGrid}
	switch verb {
	case "optimize":
		req.Objective = "mean"
	case "metrics":
		req.Policy, req.Deadline = "0>1:20", 180
	case "cdf":
		req.Policy, req.Points = "0>1:20", 20
	case "simulate":
		req.Policy, req.Reps, req.Seed = "0>1:20", 200, 1
	}
	return newPlanReq(verb, perturb(severeSpec(), r, 0.05), req)
}
