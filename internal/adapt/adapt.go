// Package adapt closes the paper's planning loop: it watches a live
// trace of delay observations (internal/trace), maintains sliding-window
// censored fits per delay channel (dist/fit), detects when the fitted
// statistics have drifted away from the model the current policy was
// solved against, and re-solves the reallocation policy — in-process or
// through a dtrserved planning service.
//
// The paper fits its testbed's delay laws once, offline (§III-B), and
// solves the policy against that static model. A deployed system's laws
// move: servers slow down, links saturate, failure rates climb. The
// controller here keeps the model honest: when the observed window
// disagrees with the fitted law the policy was derived from — by
// Kolmogorov–Smirnov distance or by relative mean shift — it refits the
// window and replans.
package adapt

import (
	"context"
	"fmt"
	"math"
	"time"

	"dtr"
	"dtr/dist"
	"dtr/dist/fit"
	"dtr/internal/obs"
	"dtr/internal/policy"
	"dtr/internal/trace"
	"dtr/modelspec"
)

// Config parameterizes a Controller. Queues is required; everything
// else has a usable default.
type Config struct {
	// Queues is the initial allocation the refitted specs record and the
	// replanner solves against, one entry per server.
	Queues []int
	// Objective selects the replanning objective when Planner is nil:
	// "mean" (default), "qos" or "reliability".
	Objective string
	// Deadline is the QoS deadline (required when Objective is "qos").
	Deadline float64
	// Window bounds the sliding window in events (default 8192). Older
	// events fall out as new ones arrive.
	Window int
	// MinObs is the minimum number of exact observations every fitted
	// channel needs before the controller trusts a fit (default
	// fit.DefaultMinObs).
	MinObs int
	// CheckEvery is how many events arrive between drift checks
	// (default 256). The first fit happens at the first check where
	// every channel clears MinObs.
	CheckEvery int
	// DriftKS triggers a refit when the KS distance between a channel's
	// windowed observations and its currently fitted law exceeds it
	// (default 0.15).
	DriftKS float64
	// DriftRelMean triggers a refit when a channel's windowed
	// observation mean moves by more than this relative fraction from
	// its value at the last fit (default 0.25).
	DriftRelMean float64
	// Families restricts the candidate families (nil = all).
	Families []fit.Family
	// GridN and Workers size the in-process solver when Planner is nil
	// (0 = library defaults).
	GridN   int
	Workers int
	// Planner fits and solves; nil means an in-process planner built
	// from the fields above.
	Planner Planner
}

// Decision is the controller's output whenever it (re)plans: the fitted
// spec, the per-channel fit report, and the solved policy.
type Decision struct {
	// Reason is "bootstrap" (first fit), "drift" or "forced".
	Reason string `json:"reason"`
	// Channel names the drifted channel when Reason is "drift".
	Channel string `json:"channel,omitempty"`
	// KS and RelMean are the drift scores that tripped the threshold
	// (zero for bootstrap/forced decisions).
	KS      float64 `json:"ks,omitempty"`
	RelMean float64 `json:"relMean,omitempty"`
	// Spec is the refitted, validated model document.
	Spec *modelspec.SystemSpec `json:"spec"`
	// Report carries the per-channel fits behind Spec.
	Report *fit.Report `json:"report"`
	// Policy is the re-solved reallocation policy and PolicyString its
	// display form.
	Policy       [][]int `json:"policy"`
	PolicyString string  `json:"policyString"`
	// Value is the achieved optimum on two-server systems (NaN-free
	// JSON: omitted when unknown).
	Value float64 `json:"value,omitempty"`
}

// Controller implements the observe → fit → detect → replan loop. Not
// safe for concurrent use: feed it from one goroutine (the trace tail).
type Controller struct {
	cfg Config // defaults applied; cfg.Planner is never nil

	window []trace.Event // ring buffer, capacity cfg.Window
	next   int           // ring write cursor

	sinceCheck int
	fitted     bool
	laws       map[string]dist.Dist // channel → currently fitted law
	baseMeans  map[string]float64   // channel → window obs-mean at last fit
	baseNs     map[string]int       // channel → window obs-count at last fit
}

// New builds a Controller, applying defaults and validating cfg.
func New(cfg Config) (*Controller, error) {
	if len(cfg.Queues) == 0 {
		return nil, fmt.Errorf("adapt: Queues required")
	}
	for i, q := range cfg.Queues {
		if q < 0 {
			return nil, fmt.Errorf("adapt: Queues[%d] = %d must be non-negative", i, q)
		}
	}
	if _, _, err := policy.ParseObjective(cfg.Objective, cfg.Deadline); err != nil {
		return nil, fmt.Errorf("adapt: %w", err)
	}
	if cfg.Window <= 0 {
		cfg.Window = 8192
	}
	if cfg.MinObs <= 0 {
		cfg.MinObs = fit.DefaultMinObs
	}
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = 256
	}
	if cfg.DriftKS <= 0 {
		cfg.DriftKS = 0.15
	}
	if cfg.DriftRelMean <= 0 {
		cfg.DriftRelMean = 0.25
	}
	if cfg.Planner == nil {
		cfg.Planner = &InProcess{
			Objective: cfg.Objective, Deadline: cfg.Deadline,
			GridN: cfg.GridN, Workers: cfg.Workers,
		}
	}
	return &Controller{cfg: cfg}, nil
}

// Observe feeds one trace event. Most calls return (nil, nil); a
// non-nil Decision means the controller (re)planned — at bootstrap,
// once every channel clears MinObs, or on detected drift. Errors are
// advisory: a failed fit or plan leaves the previous policy standing
// and the window intact, so the caller can keep feeding events.
func (c *Controller) Observe(ctx context.Context, ev trace.Event) (*Decision, error) {
	if ev.V == 0 {
		ev.V = trace.Version
	}
	if err := ev.Validate(); err != nil {
		return nil, fmt.Errorf("adapt: %w", err)
	}
	if ev.Kind == trace.KindMeta {
		return nil, nil
	}
	if len(c.window) < c.cfg.Window {
		c.window = append(c.window, ev)
	} else {
		c.window[c.next] = ev
		c.next = (c.next + 1) % c.cfg.Window
	}

	c.sinceCheck++
	if c.sinceCheck < c.cfg.CheckEvery {
		return nil, nil
	}
	c.sinceCheck = 0
	return c.check(ctx, FitInput{Events: c.snapshot()})
}

// snapshot returns the window contents (order does not matter to the
// fitters).
func (c *Controller) snapshot() []trace.Event {
	out := make([]trace.Event, len(c.window))
	copy(out, c.window)
	return out
}

// check runs the bootstrap / drift logic on one observation window, at
// a check boundary of either source.
func (c *Controller) check(ctx context.Context, in FitInput) (*Decision, error) {
	chs, err := in.channels()
	if err != nil {
		return nil, err
	}
	if !c.fitted {
		if !c.ready(chs) {
			return nil, nil
		}
		return c.replan(ctx, in, chs, &Decision{Reason: "bootstrap"})
	}
	d := c.drifted(chs)
	if d == nil {
		return nil, nil
	}
	adaptDrift.Inc()
	return c.replan(ctx, in, chs, d)
}

// ready reports whether every channel a spec requires has MinObs exact
// observations: all services for the configured server count, and the
// transfer channel.
func (c *Controller) ready(chs fit.Channels) bool {
	if chs.Servers != len(c.cfg.Queues) {
		return false
	}
	for _, view := range chs.Service {
		if view.Exact() < c.cfg.MinObs {
			return false
		}
	}
	return chs.Transfer.Exact() >= c.cfg.MinObs
}

// drifted compares the window against the fitted laws and returns a
// drift Decision skeleton for the worst offending channel, or nil.
// Failure channels are excluded: their samples are censoring-heavy by
// nature (most realizations end with the server alive), so windowed KS
// and mean statistics on the few uncensored failures are noise. Each
// source answers with its own estimators (see fit.Channel): exact KS
// and the unbiased standard deviation on raw windows, sketch-edge KS
// and the accumulators' population deviation on statistics snapshots.
func (c *Controller) drifted(chs fit.Channels) *Decision {
	var worst *Decision
	score := 0.0
	for ch, view := range driftChannels(chs) {
		law, ok := c.laws[ch]
		if !ok || view.Exact() < c.cfg.MinObs {
			continue
		}
		n := float64(view.Exact())
		// The configured thresholds are floors; each statistic must also
		// clear its sampling-noise gate, or the detector would trip on
		// pure estimation error. The baseline law was itself fitted from
		// a finite window (nFit observations), so both sample sizes enter
		// the gate, two-sample style: the KS distance between an n-point
		// window and a law estimated from nFit points hovers near
		// 1.36·√(1/n + 1/nFit) under no drift at all.
		nFit := float64(c.baseNs[ch])
		if nFit <= 0 {
			nFit = n
		}
		gate := math.Sqrt(1/n + 1/nFit)
		ks := view.KS(law.CDF)
		ksTrip := ks > c.cfg.DriftKS && ks > 1.63*gate // ~99% critical value
		// Export the detector's internals per channel so dashboards can
		// show how close each channel sits to its trigger, not just
		// whether it fired (no-ops until a metrics registry is set).
		obs.Default().Gauge(obs.Name("dtr_adapt_drift_ks", "channel", ch)).Set(ks)
		obs.Default().Gauge(obs.Name("dtr_adapt_drift_noise_gate", "channel", ch)).Set(1.63 * gate)
		rel, relTrip := 0.0, false
		if base, ok := c.baseMeans[ch]; ok && base > 0 {
			m := view.Mean()
			rel = math.Abs(m-base) / base
			se := view.StdDev() * gate
			relTrip = rel > c.cfg.DriftRelMean && math.Abs(m-base) > 4*se
			obs.Default().Gauge(obs.Name("dtr_adapt_drift_rel_mean", "channel", ch)).Set(rel)
		}
		if !ksTrip && !relTrip {
			continue
		}
		// Normalize each score by its threshold so KS-driven and
		// mean-driven drifts compete on one scale.
		sc := math.Max(ks/c.cfg.DriftKS, rel/c.cfg.DriftRelMean)
		if sc > score {
			score = sc
			worst = &Decision{Reason: "drift", Channel: ch, KS: ks, RelMean: rel}
		}
	}
	return worst
}

// driftChannels maps drift-checkable channels to their windowed views
// (transfer and fn values are already per-task normalized by the
// source).
func driftChannels(chs fit.Channels) map[string]fit.Channel {
	out := make(map[string]fit.Channel, len(chs.Service)+2)
	for i, view := range chs.Service {
		out[fmt.Sprintf("service[%d]", i)] = view
	}
	out["transfer"] = chs.Transfer
	out["fn"] = chs.FN
	return out
}

// replan fits the window and solves a fresh policy, completing d. Each
// replan is one trace: a "replan" root span with "fit" and "plan"
// children (and, under the HTTP planner, the outgoing posts beneath
// those — the traceparent hop joins dtrserved's trace to this one).
func (c *Controller) replan(ctx context.Context, in FitInput, chs fit.Channels, d *Decision) (*Decision, error) {
	t0 := time.Now()
	span := obs.DefaultTracer().StartRoot("replan", "", "reason", d.Reason)
	defer span.End()
	if in.Stats != nil {
		span.SetAttr("source", "stats")
	} else {
		span.SetAttr("events", len(in.Events))
	}
	ctx = obs.ContextWithSpan(ctx, span)
	if d.Channel != "" {
		span.SetAttr("channel", d.Channel)
	}

	fitSpan := span.Child("fit")
	spec, report, err := c.cfg.Planner.Fit(obs.ContextWithSpan(ctx, fitSpan), in, fit.Config{
		Queues: c.cfg.Queues, Families: c.cfg.Families, MinObs: c.cfg.MinObs,
	})
	fitSpan.End()
	if err != nil {
		span.SetAttr("error", "fit")
		return nil, fmt.Errorf("adapt: fit: %w", err)
	}
	adaptFits.Inc()
	planSpan := span.Child("plan")
	policy, value, err := c.cfg.Planner.Plan(obs.ContextWithSpan(ctx, planSpan), spec)
	planSpan.End()
	if err != nil {
		span.SetAttr("error", "plan")
		return nil, fmt.Errorf("adapt: plan: %w", err)
	}
	adaptReplans.Inc()
	adaptRefit.Observe(time.Since(t0).Seconds())
	span.Logger().Info("replanned", "reason", d.Reason, "channel", d.Channel,
		"policy", dtr.FormatPolicy(policy), "dur", time.Since(t0))

	if err := c.adopt(spec, chs); err != nil {
		return nil, err
	}
	for _, cf := range report.Fits {
		obs.Default().Gauge(obs.Name("dtr_adapt_channel_mean", "channel", cf.Channel)).Set(cf.Mean)
	}

	d.Spec = spec
	d.Report = report
	d.Policy = policy
	d.PolicyString = dtr.FormatPolicy(policy)
	d.Value = value
	return d, nil
}

// rebuildLaws materializes the per-channel laws a fitted spec implies —
// the drift baselines.
func rebuildLaws(spec *modelspec.SystemSpec) (map[string]dist.Dist, error) {
	laws := make(map[string]dist.Dist, len(spec.Servers)+2)
	for i, srv := range spec.Servers {
		law, err := srv.Service.Dist()
		if err != nil {
			return nil, fmt.Errorf("adapt: rebuild service[%d] law: %w", i, err)
		}
		laws[fmt.Sprintf("service[%d]", i)] = law
	}
	transferLaw := func(ts modelspec.TransferSpec) (dist.Dist, error) {
		ds := ts.DistSpec
		ds.Mean = ts.PerTaskMean
		return ds.Dist()
	}
	law, err := transferLaw(spec.Transfer)
	if err != nil {
		return nil, fmt.Errorf("adapt: rebuild transfer law: %w", err)
	}
	laws["transfer"] = law
	if spec.FN != nil {
		law, err := transferLaw(*spec.FN)
		if err != nil {
			return nil, fmt.Errorf("adapt: rebuild fn law: %w", err)
		}
		laws["fn"] = law
	}
	return laws, nil
}

// adopt installs a freshly fitted spec as the drift baseline: the
// materialized per-channel laws and the window's exact-observation
// means and counts.
func (c *Controller) adopt(spec *modelspec.SystemSpec, chs fit.Channels) error {
	laws, err := rebuildLaws(spec)
	if err != nil {
		return err
	}
	base := make(map[string]float64)
	ns := make(map[string]int)
	for ch, view := range driftChannels(chs) {
		if view.Exact() > 0 {
			base[ch] = view.Mean()
			ns[ch] = view.Exact()
		}
	}
	c.laws = laws
	c.baseMeans = base
	c.baseNs = ns
	c.fitted = true
	return nil
}

// Refit forces a fit-and-replan from the current window regardless of
// drift — the batch ("-once") mode of cmd/dtradapt.
func (c *Controller) Refit(ctx context.Context) (*Decision, error) {
	events := c.snapshot()
	if len(events) == 0 {
		return nil, fmt.Errorf("adapt: no events observed")
	}
	return c.refit(ctx, FitInput{Events: events})
}

// refit fits and replans from in regardless of drift.
func (c *Controller) refit(ctx context.Context, in FitInput) (*Decision, error) {
	chs, err := in.channels()
	if err != nil {
		return nil, err
	}
	return c.replan(ctx, in, chs, &Decision{Reason: "forced"})
}

// Fitted reports whether the controller has a current fit and policy.
func (c *Controller) Fitted() bool { return c.fitted }
