package adapt

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"dtr/dist/fit"
	"dtr/internal/obs"
	"dtr/internal/serve"
	"dtr/internal/trace"
	"dtr/modelspec"
)

// FitInput is one observation window from either source: raw trace
// events, or the windowed sufficient statistics of a dtringest
// snapshot (the bounded-memory path). Exactly one is set — the two
// payloads serve.FitRequest accepts.
type FitInput struct {
	Events []trace.Event
	Stats  *fit.StatsSet
}

// channels returns the per-channel view of the window.
func (in FitInput) channels() (fit.Channels, error) {
	if in.Stats != nil {
		return in.Stats.Channels(), nil
	}
	sm, err := fit.Collect(in.Events)
	if err != nil {
		return fit.Channels{}, fmt.Errorf("adapt: %w", err)
	}
	return sm.Channels(), nil
}

// Planner fits a model document to an observation window and solves it
// for a reallocation policy. Two implementations: InProcess (this
// process's solver stack) and HTTP (a dtrserved instance's /v1/fit and
// /v1/optimize endpoints).
type Planner interface {
	Fit(ctx context.Context, in FitInput, cfg fit.Config) (*modelspec.SystemSpec, *fit.Report, error)
	// Plan solves spec and returns the policy with the achieved optimum
	// (NaN when the solver does not report one).
	Plan(ctx context.Context, spec *modelspec.SystemSpec) (policy [][]int, value float64, err error)
}

// InProcess plans inside this process: dist/fit for the fits, the dtr
// solver stack for the policy.
type InProcess struct {
	// Objective is "mean" (default), "qos" or "reliability"; Deadline
	// parameterizes "qos".
	Objective string
	Deadline  float64
	// GridN and Workers size the solver (0 = library defaults).
	GridN   int
	Workers int
}

// Fit implements Planner.
func (p *InProcess) Fit(_ context.Context, in FitInput, cfg fit.Config) (*modelspec.SystemSpec, *fit.Report, error) {
	if in.Stats != nil {
		return in.Stats.Spec(cfg)
	}
	return fit.Spec(in.Events, cfg)
}

// Plan implements Planner: the request HTTP.Plan posts, answered by the
// same verb in this process.
func (p *InProcess) Plan(_ context.Context, spec *modelspec.SystemSpec) ([][]int, float64, error) {
	req, err := optimizeRequest(spec, p.Objective, p.Deadline)
	if err != nil {
		return nil, 0, err
	}
	req.Grid = p.GridN
	resp, err := serve.Exec("optimize", req, p.Workers, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("adapt: %w", err)
	}
	opt := resp.(*serve.OptimizeResponse)
	return opt.Matrix, float64(opt.Value), nil
}

// optimizeRequest is the optimize request both planners send for a
// fitted spec.
func optimizeRequest(spec *modelspec.SystemSpec, objective string, deadline float64) (*serve.Request, error) {
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("adapt: encode spec: %w", err)
	}
	return &serve.Request{Spec: specJSON, Objective: objective, Deadline: deadline}, nil
}

// HTTP plans through a dtrserved instance: POST /v1/fit for the fits,
// POST /v1/optimize for the policy. The wire types are the serve
// package's own, so controller and daemon cannot drift apart.
type HTTP struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Client is the HTTP client (nil = http.DefaultClient).
	Client *http.Client
	// Objective and Deadline parameterize /v1/optimize like InProcess.
	Objective string
	Deadline  float64
	// TimeoutMS is forwarded as the per-request timeoutMs.
	TimeoutMS int
}

// roundTrip sends req and returns the status and the (size-capped)
// body. When ctx carries a span (the controller's replan span), a child
// span brackets the call and its W3C traceparent goes out on the
// request, so the peer's request trace joins the controller's — one
// trace id across the process hop. A nil client means
// http.DefaultClient.
func roundTrip(ctx context.Context, client *http.Client, req *http.Request, spanName string, attrs ...any) (int, []byte, error) {
	span := obs.SpanFromContext(ctx).Child(spanName, attrs...)
	defer span.End()
	if tp := span.Traceparent(); tp != "" {
		req.Header.Set(obs.TraceparentHeader, tp)
	}
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		span.SetAttr("error", true)
		return 0, nil, fmt.Errorf("adapt: %s %s: %w", req.Method, req.URL.Path, err)
	}
	defer resp.Body.Close()
	span.SetAttr("code", resp.StatusCode)
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return 0, nil, fmt.Errorf("adapt: read %s response: %w", req.URL.Path, err)
	}
	return resp.StatusCode, data, nil
}

// post sends body to path and decodes a 200 into out; non-200 answers
// become errors carrying the server's message.
func (p *HTTP) post(ctx context.Context, path string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("adapt: encode %s request: %w", path, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.BaseURL+path, bytes.NewReader(b))
	if err != nil {
		return fmt.Errorf("adapt: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	code, data, err := roundTrip(ctx, p.Client, req, "http_post", "path", path)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		var er serve.ErrorResponse
		if json.Unmarshal(data, &er) == nil && er.Error != "" {
			return fmt.Errorf("adapt: %s: %s (HTTP %d)", path, er.Error, code)
		}
		return fmt.Errorf("adapt: %s: HTTP %d", path, code)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("adapt: decode %s response: %w", path, err)
	}
	return nil
}

// Fit implements Planner via POST /v1/fit.
func (p *HTTP) Fit(ctx context.Context, in FitInput, cfg fit.Config) (*modelspec.SystemSpec, *fit.Report, error) {
	var fams []string
	for _, f := range cfg.Families {
		fams = append(fams, string(f))
	}
	var resp serve.FitResponse
	err := p.post(ctx, "/v1/fit", serve.FitRequest{
		Events: in.Events, Stats: in.Stats, Queues: cfg.Queues, Families: fams,
		MinObs: cfg.MinObs, TimeoutMS: p.TimeoutMS,
	}, &resp)
	if err != nil {
		return nil, nil, err
	}
	if resp.Spec == nil {
		return nil, nil, fmt.Errorf("adapt: /v1/fit returned no spec")
	}
	return resp.Spec, resp.Report, nil
}

// Plan implements Planner via POST /v1/optimize.
func (p *HTTP) Plan(ctx context.Context, spec *modelspec.SystemSpec) ([][]int, float64, error) {
	req, err := optimizeRequest(spec, p.Objective, p.Deadline)
	if err != nil {
		return nil, 0, err
	}
	req.TimeoutMS = p.TimeoutMS
	var resp serve.OptimizeResponse
	if err := p.post(ctx, "/v1/optimize", req, &resp); err != nil {
		return nil, 0, err
	}
	if len(resp.Matrix) == 0 {
		return nil, 0, fmt.Errorf("adapt: /v1/optimize returned no policy")
	}
	return resp.Matrix, float64(resp.Value), nil
}
