package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dtr"
	"dtr/internal/direct"
	"dtr/internal/policy"
	"dtr/internal/serve"
	"dtr/internal/sim"
	"dtr/modelspec"
)

// tracer records spans in memory from the benchmark's own files, around
// the calls into each layer; they are written out when the run ends.
// The program's own tracer stays off. A nil tracer records nothing, so
// the untraced run pays one nil check per span site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
}

// spanRec is one span: times are nanoseconds since the tracer started,
// Parent is the index of the causing span (−1 for a root), and every
// span of one operation carries that operation's id.
type spanRec struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

type spanRef struct {
	tr *tracer
	id int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) start(name string, parent *spanRef, op int) *spanRef {
	if t == nil {
		return nil
	}
	p := -1
	if parent != nil {
		p = parent.id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{Name: name, Start: int64(time.Since(t.t0)), Parent: p, Op: op})
	return &spanRef{t, len(t.spans) - 1}
}

func (s *spanRef) end() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.tr.spans[s.id].End = int64(time.Since(s.tr.t0))
	s.tr.mu.Unlock()
}

// write stores the spans as JSONL, one span per line, its line number
// being the id Parent refers to.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is the ledger row of one span name.
type layerTime struct {
	Count int `json:"count"`
	// TotalMS sums the spans' durations; SelfMS subtracts the part their
	// child spans cover.
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// ledger folds the spans into per-name totals and self times.
func (t *tracer) ledger() map[string]layerTime {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]layerTime{}
	for i, s := range t.spans {
		row := out[s.Name]
		row.Count++
		row.TotalMS += float64(s.End-s.Start) / 1e6
		row.SelfMS += float64(s.End-s.Start-child[i]) / 1e6
		out[s.Name] = row
	}
	return out
}

// reconcile compares, per planning operation, the real loopback call
// with the sum of the replay's leaf spans. It returns the median
// serve.http, the median Σ leaves and the median difference, in ms.
func (t *tracer) reconcile() (httpMS, leavesMS, unattributedMS float64) {
	type opTimes struct{ http, leaves int64 }
	replay := map[int]bool{} // span ids of replay spans
	ops := map[int]*opTimes{}
	at := func(op int) *opTimes {
		if ops[op] == nil {
			ops[op] = &opTimes{}
		}
		return ops[op]
	}
	for i, s := range t.spans {
		switch {
		case s.Name == "serve.http":
			at(s.Op).http += s.End - s.Start
		case s.Name == "replay":
			replay[i] = true
		case s.Parent >= 0 && replay[s.Parent]:
			at(s.Op).leaves += s.End - s.Start
		}
	}
	var hs, ls, us []float64
	for _, o := range ops {
		if o.leaves == 0 {
			continue // an operation that failed before its replay
		}
		hs = append(hs, float64(o.http)/1e6)
		ls = append(ls, float64(o.leaves)/1e6)
		us = append(us, float64(o.http-o.leaves)/1e6)
	}
	if len(hs) == 0 {
		return 0, 0, 0 // no planning operation in this workload
	}
	return median(hs), median(ls), median(us)
}

// replayPlan walks one planning request through the layers the service
// crosses for it, one leaf span per layer, calling the same public
// functions serve.compute reaches through dtr.System: JSON decode →
// modelspec decode → build → fingerprint → solver build → search or
// evaluation → JSON encode. A request that must hit the cache stops
// after the fingerprint: the LRU and the write are what serve.http has
// left over. Errors are not expected (the real call just succeeded on
// the same input) and surface as a missing leaf in the ledger.
func replayPlan(tr *tracer, root *spanRef, opID int, pr planReq) {
	rp := tr.start("replay", root, opID)
	defer rp.end()
	var failed error
	leaf := func(name string, f func() error) {
		if failed != nil {
			return
		}
		sp := tr.start(name, rp, opID)
		failed = f()
		sp.end()
	}

	var req serve.Request
	leaf("json.Decode", func() error {
		dec := json.NewDecoder(bytes.NewReader(pr.body))
		dec.DisallowUnknownFields()
		return dec.Decode(&req)
	})
	var spec *modelspec.SystemSpec
	leaf("modelspec.Decode", func() (err error) {
		spec, err = modelspec.Decode(req.Spec)
		return err
	})
	var model *dtr.Model
	var initial []int
	leaf("modelspec.Build", func() (err error) {
		model, initial, err = spec.Build()
		return err
	})
	leaf("modelspec.Fingerprint", func() error {
		opts := req
		opts.Spec = nil // the service hashes its normalized option block
		ob, err := json.Marshal(opts)
		if err != nil {
			return err
		}
		if _, err := spec.Fingerprint([]byte(pr.verb), ob); err != nil {
			return err
		}
		_, err = spec.CanonicalJSON()
		return err
	})
	if pr.hit || failed != nil {
		return
	}

	grid := req.Grid
	if grid == 0 {
		grid = 8192
	}
	maxQ := initial[0] + initial[1]
	var sv *direct.Solver
	build := func(maxFactor int) {
		leaf("direct.NewSolver", func() (err error) {
			sv, err = direct.NewSolver(model, direct.Config{N: grid, MaxQueue: [2]int{maxQ, maxQ}, MaxFactor: maxFactor})
			return err
		})
	}
	pol, err := dtr.ParsePolicy(req.Policy, model.N())
	if err != nil {
		return
	}
	l12, l21 := pol[0][1], pol[1][0]
	objective := map[string]policy.Objective{"": policy.ObjMeanTime, "mean": policy.ObjMeanTime,
		"qos": policy.ObjQoS, "reliability": policy.ObjReliability}[req.Objective]

	var reply any
	switch {
	case pr.verb == "optimize" && req.Replication != nil:
		build(req.Replication.MaxFactor)
		leaf("policy.OptimizeRepl2", func() error {
			res, err := policy.OptimizeRepl2(sv, initial[0], initial[1], objective, policy.ReplOptions2{
				Options2:  policy.Options2{Deadline: req.Deadline},
				MaxFactor: req.Replication.MaxFactor, Budget: req.Replication.Budget,
			})
			p := dtr.Policy2(res.L12, res.L21)
			reply = &serve.OptimizeResponse{Objective: req.Objective, Policy: dtr.FormatPolicy(p), Matrix: p,
				Value: serve.Num(res.Value), Factors: res.Factors[:]}
			return err
		})
	case pr.verb == "optimize":
		build(1)
		leaf("policy.Optimize2", func() error {
			res, err := policy.Optimize2(sv, initial[0], initial[1], objective, policy.Options2{Deadline: req.Deadline})
			p := dtr.Policy2(res.L12, res.L21)
			reply = &serve.OptimizeResponse{Objective: req.Objective, Policy: dtr.FormatPolicy(p), Matrix: p, Value: serve.Num(res.Value)}
			return err
		})
	case pr.verb == "metrics":
		build(1)
		leaf("direct.metrics", func() error {
			resp := &serve.MetricsResponse{Policy: req.Policy, MeanTime: serve.Num(math.NaN()), QoS: serve.Num(math.NaN()), Deadline: req.Deadline}
			rel, err := sv.Reliability(initial[0], initial[1], l12, l21)
			if err != nil {
				return err
			}
			resp.Reliability = serve.Num(rel)
			if model.Reliable() {
				mean, err := sv.MeanTime(initial[0], initial[1], l12, l21)
				if err != nil {
					return err
				}
				resp.MeanTime = serve.Num(mean)
			}
			if req.Deadline > 0 {
				q, err := sv.QoS(initial[0], initial[1], l12, l21, req.Deadline)
				if err != nil {
					return err
				}
				resp.QoS = serve.Num(q)
			}
			reply = resp
			return nil
		})
	case pr.verb == "cdf":
		build(1)
		leaf("direct.CompletionCDF", func() error {
			cdf, err := sv.CompletionCDF(initial[0], initial[1], l12, l21)
			if err != nil {
				return err
			}
			resp := &serve.CDFResponse{Policy: req.Policy}
			for i := 1; i <= req.Points; i++ {
				at := (len(cdf) - 1) * i / req.Points
				resp.Points = append(resp.Points, serve.CDFPoint{T: float64(at) * sv.Dx(), P: serve.Num(cdf[at])})
			}
			reply = resp
			return nil
		})
	case pr.verb == "simulate":
		leaf("sim.Estimate", func() error {
			est, err := sim.Estimate(model, initial, pol, sim.Options{Reps: req.Reps, Seed: req.Seed, Deadline: req.Deadline})
			reply = &serve.SimulateResponse{Policy: req.Policy, Reps: est.Reps, Seed: req.Seed,
				Reliability: serve.Num(est.Reliability), ReliabilityHalf: serve.Num(est.ReliabilityHalf),
				MeanTime: serve.Num(est.MeanTime), MeanTimeHalf: serve.Num(est.MeanTimeHalf),
				QoS: serve.Num(est.QoS), QoSHalf: serve.Num(est.QoSHalf), Completed: est.Completed}
			return err
		})
	case pr.verb == "explain" || pr.verb == "bounds":
		// These two reach their solvers only through dtr.System, which
		// builds them privately: one leaf covers build and evaluation.
		sys, err := dtr.NewSystem(model, initial)
		if err != nil {
			failed = err
			return
		}
		sys.GridN = grid
		if pr.verb == "explain" {
			leaf("dtr.Explain", func() (err error) {
				reply, err = sys.Explain(dtr.ExplainOptions{Objective: req.Objective, Deadline: req.Deadline})
				return err
			})
		} else {
			leaf("dtr.MetricBounds", func() (err error) {
				reply, err = sys.MetricBounds(pol, req.Deadline)
				return err
			})
		}
	default:
		failed = fmt.Errorf("replay: unexpected verb %q", pr.verb)
	}
	leaf("json.Marshal", func() error {
		_, err := json.Marshal(reply)
		return err
	})
}
