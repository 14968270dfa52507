// Package load is the open-loop load generator behind cmd/dtrload: it
// replays a configurable mix of planning verbs against a dtrserved
// instance at fixed request rates and reports latency quantiles and
// outcome rates per (rate level, verb), checked against declared SLOs.
//
// The loop is open: requests launch on the rate schedule regardless of
// how many are still outstanding, so a saturated server shows up as
// growing latency and 429/504 rejections instead of a silently
// self-throttling benchmark — the standard coordinated-omission-safe
// arrangement for service benchmarking.
package load

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"dtr/internal/obs"
	"dtr/internal/serve"
)

// ReportSchema versions the BENCH_serve.json document.
const ReportSchema = "dtr.bench.serve.v1"

// SLO declares the pass/fail thresholds. Zero values disable a check.
type SLO struct {
	// P99Ms bounds the per-verb p99 latency in milliseconds.
	P99Ms float64 `json:"p99Ms,omitempty"`
	// MaxErrorRate bounds the fraction of 5xx and transport failures.
	MaxErrorRate float64 `json:"maxErrorRate,omitempty"`
	// MaxRejectRate bounds the fraction of 429 + 504 answers.
	MaxRejectRate float64 `json:"maxRejectRate,omitempty"`
}

// Config parameterizes one load run.
type Config struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Targets, when set, spreads requests round-robin over several
	// service roots (a sharded dtrserved fleet) and scrapes each one's
	// /metrics.json around every rate level for fleet-wide compute and
	// cache-hit deltas. Empty = just BaseURL.
	Targets []string
	// Client issues the requests (nil = a client with Timeout 30s).
	Client *http.Client
	// Spec is the modelspec document every request carries.
	Spec json.RawMessage
	// Verbs is the request mix, applied round-robin (required).
	Verbs []string
	// RPS are the offered request rates; each runs for Duration.
	RPS []float64
	// Duration is the wall-clock length of one rate level (default 5s).
	Duration time.Duration
	// Grid, Policy, Objective, Deadline, Reps, Points parameterize the
	// verbs like the dtrplan flags of the same names.
	Grid      int
	Policy    string
	Objective string
	Deadline  float64
	Reps      int
	Points    int
	// Variants spreads requests over this many distinct cache keys
	// (default 1 = every request identical, the fully cached regime):
	// simulate varies its seed, the lattice verbs vary their grid by one
	// 64-point step per variant. More variants → more real solver work.
	Variants int
	// SLO declares the pass/fail thresholds recorded in the report.
	SLO SLO
}

// VerbStats aggregates one verb's outcomes at one rate level.
type VerbStats struct {
	Verb     string `json:"verb"`
	Requests int    `json:"requests"`
	// Codes counts answers by HTTP status ("0" = transport failure).
	Codes map[string]int `json:"codes"`
	// Latency quantiles over completed requests, milliseconds.
	P50Ms  float64 `json:"p50Ms"`
	P99Ms  float64 `json:"p99Ms"`
	P999Ms float64 `json:"p999Ms"`
	// ErrorRate is the 5xx+transport fraction, RejectRate the 429+504
	// fraction (504 counts in both: it is the admission path's overload
	// answer, and a client-visible failure).
	ErrorRate  float64 `json:"errorRate"`
	RejectRate float64 `json:"rejectRate"`
	// SLOPass reports this cell against the configured SLO.
	SLOPass bool `json:"sloPass"`
	// Exemplars are the slowest SLO-threatening requests of this cell
	// whose responses carried a traceparent, worst first (at most 3).
	// Their trace IDs join against the server's /debug/requests ring and
	// trace JSONL export, so a bad p99 in the report leads straight to
	// the span tree that produced it.
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// Exemplar identifies one slow request by its server-echoed trace ID.
type Exemplar struct {
	TraceID string  `json:"traceId"`
	Ms      float64 `json:"ms"`
	Code    int     `json:"code"`
}

// LevelReport is one rate level's outcome.
type LevelReport struct {
	RPS         float64     `json:"rps"`
	DurationSec float64     `json:"durationSec"`
	Offered     int         `json:"offered"`
	Completed   int         `json:"completed"`
	Verbs       []VerbStats `json:"verbs"`
	// Fleet carries fleet-wide server-side counter deltas for this level
	// (present when every target's /metrics.json was scrapeable).
	Fleet *FleetStats `json:"fleet,omitempty"`
}

// FleetStats are server-side counter deltas summed across every target
// over one rate level: how much real solver work the offered load cost
// the fleet, and how much the cache tiers absorbed.
type FleetStats struct {
	Targets      int     `json:"targets"`
	Computes     uint64  `json:"computes"`
	CacheHits    uint64  `json:"cacheHits"`
	CacheMisses  uint64  `json:"cacheMisses"`
	Forwarded    uint64  `json:"forwarded"`
	CacheHitRate float64 `json:"cacheHitRate"` // hits / (hits + misses)
}

// Report is the BENCH_serve.json document.
type Report struct {
	Schema  string        `json:"schema"`
	BaseURL string        `json:"baseUrl"`
	Targets []string      `json:"targets,omitempty"` // all shards when > 1
	Start   time.Time     `json:"start"`
	SLO     SLO           `json:"slo"`
	SLOPass bool          `json:"sloPass"`
	Levels  []LevelReport `json:"levels"`
}

// outcome is one finished request.
type outcome struct {
	verb  string
	code  int // 0 = transport failure
	ms    float64
	trace string // server-echoed trace ID ("" = tracing off / no answer)
}

// Run executes the configured schedule and returns the report. Context
// cancellation aborts between launches; in-flight requests still finish
// (bounded by the client timeout).
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if len(cfg.Targets) == 0 {
		if cfg.BaseURL == "" {
			return nil, fmt.Errorf("load: BaseURL required")
		}
		cfg.Targets = []string{cfg.BaseURL}
	}
	if cfg.BaseURL == "" {
		cfg.BaseURL = cfg.Targets[0]
	}
	if len(cfg.Spec) == 0 {
		return nil, fmt.Errorf("load: Spec required")
	}
	if len(cfg.Verbs) == 0 {
		return nil, fmt.Errorf("load: at least one verb required")
	}
	if len(cfg.RPS) == 0 {
		return nil, fmt.Errorf("load: at least one RPS level required")
	}
	for _, r := range cfg.RPS {
		if r <= 0 {
			return nil, fmt.Errorf("load: RPS levels must be positive, got %g", r)
		}
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	if cfg.Variants <= 0 {
		cfg.Variants = 1
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}

	rep := &Report{Schema: ReportSchema, BaseURL: cfg.BaseURL, Start: time.Now().UTC(), SLO: cfg.SLO, SLOPass: true}
	if len(cfg.Targets) > 1 {
		rep.Targets = cfg.Targets
	}
	for _, rps := range cfg.RPS {
		before := scrapeFleet(ctx, client, cfg.Targets)
		lvl, err := runLevel(ctx, client, &cfg, rps)
		if err != nil {
			return nil, err
		}
		if after := scrapeFleet(ctx, client, cfg.Targets); before != nil && after != nil {
			lvl.Fleet = fleetDelta(len(cfg.Targets), before, after)
		}
		for _, vs := range lvl.Verbs {
			if !vs.SLOPass {
				rep.SLOPass = false
			}
		}
		rep.Levels = append(rep.Levels, *lvl)
	}
	return rep, nil
}

// runLevel drives one rate level: an open-loop launch schedule, then a
// wait for every outstanding request.
func runLevel(ctx context.Context, client *http.Client, cfg *Config, rps float64) (*LevelReport, error) {
	interval := time.Duration(float64(time.Second) / rps)
	deadline := time.Now().Add(cfg.Duration)

	var (
		mu       sync.Mutex
		outs     []outcome
		wg       sync.WaitGroup
		launched int
	)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for i := 0; time.Now().Before(deadline); i++ {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-tick.C:
		}
		verb := cfg.Verbs[i%len(cfg.Verbs)]
		variant := i % cfg.Variants
		target := cfg.Targets[i%len(cfg.Targets)]
		launched++
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := issue(ctx, client, cfg, target, verb, variant)
			mu.Lock()
			outs = append(outs, o)
			mu.Unlock()
		}()
	}
	wg.Wait()

	lvl := &LevelReport{RPS: rps, DurationSec: cfg.Duration.Seconds(), Offered: launched, Completed: len(outs)}
	byVerb := map[string][]outcome{}
	for _, o := range outs {
		byVerb[o.verb] = append(byVerb[o.verb], o)
	}
	for _, verb := range cfg.Verbs {
		vo, ok := byVerb[verb]
		if !ok {
			continue
		}
		lvl.Verbs = append(lvl.Verbs, summarize(verb, vo, cfg.SLO))
	}
	return lvl, nil
}

// issue sends one request to target and classifies its outcome.
func issue(ctx context.Context, client *http.Client, cfg *Config, target, verb string, variant int) outcome {
	body, err := json.Marshal(request(cfg, variant))
	if err != nil {
		return outcome{verb: verb, code: 0}
	}
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+"/v1/"+verb, bytes.NewReader(body))
	if err != nil {
		return outcome{verb: verb, code: 0}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return outcome{verb: verb, code: 0, ms: time.Since(t0).Seconds() * 1e3}
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	o := outcome{verb: verb, code: resp.StatusCode, ms: time.Since(t0).Seconds() * 1e3}
	// The server echoes its root span's traceparent when tracing is on;
	// keep the trace ID so slow requests are joinable to /debug/requests.
	if tid, _, ok := obs.ParseTraceparent(resp.Header.Get(obs.TraceparentHeader)); ok {
		o.trace = tid.String()
	}
	return o
}

// request builds the body of one variant, the same for every verb: the
// service ignores — and leaves out of the cache key — the fields a verb
// does not read. Variants spread the cache keys: simulate reads the
// seed, the lattice verbs the grid, stepped by 64 points (staying inside
// the server's accepted range).
func request(cfg *Config, variant int) serve.Request {
	return serve.Request{
		Spec:      cfg.Spec,
		Grid:      cmp.Or(cfg.Grid, serve.DefaultGrid) + 64*variant,
		Policy:    cfg.Policy,
		Objective: cfg.Objective,
		Deadline:  cfg.Deadline,
		Reps:      cfg.Reps,
		Seed:      uint64(1 + variant),
		Points:    cfg.Points,
	}
}

// summarize folds one verb's outcomes into stats and the SLO verdict.
func summarize(verb string, outs []outcome, slo SLO) VerbStats {
	vs := VerbStats{Verb: verb, Requests: len(outs), Codes: map[string]int{}, SLOPass: true}
	var lat []float64
	var errs, rejects int
	for _, o := range outs {
		vs.Codes[fmt.Sprintf("%d", o.code)]++
		lat = append(lat, o.ms)
		if o.code == 0 || o.code >= 500 {
			errs++
		}
		if o.code == http.StatusTooManyRequests || o.code == http.StatusGatewayTimeout {
			rejects++
		}
	}
	sort.Float64s(lat)
	vs.P50Ms = quantile(lat, 0.50)
	vs.P99Ms = quantile(lat, 0.99)
	vs.P999Ms = quantile(lat, 0.999)
	n := float64(len(outs))
	vs.ErrorRate = float64(errs) / n
	vs.RejectRate = float64(rejects) / n
	if slo.P99Ms > 0 && vs.P99Ms > slo.P99Ms {
		vs.SLOPass = false
	}
	if slo.MaxErrorRate > 0 && vs.ErrorRate > slo.MaxErrorRate {
		vs.SLOPass = false
	}
	if slo.MaxRejectRate > 0 && vs.RejectRate > slo.MaxRejectRate {
		vs.SLOPass = false
	}
	vs.Exemplars = exemplars(outs, slo, vs.P99Ms)
	return vs
}

// exemplars picks the worst traced requests at or above the SLO p99
// threshold (the measured p99 when no SLO is declared): the concrete
// trace IDs behind the cell's tail latency.
func exemplars(outs []outcome, slo SLO, p99 float64) []Exemplar {
	thr := slo.P99Ms
	if thr <= 0 {
		thr = p99
	}
	var cand []outcome
	for _, o := range outs {
		if o.trace != "" && o.ms >= thr {
			cand = append(cand, o)
		}
	}
	sort.Slice(cand, func(i, j int) bool {
		if cand[i].ms != cand[j].ms {
			return cand[i].ms > cand[j].ms
		}
		return cand[i].trace < cand[j].trace
	})
	if len(cand) > 3 {
		cand = cand[:3]
	}
	var ex []Exemplar
	for _, o := range cand {
		ex = append(ex, Exemplar{TraceID: o.trace, Ms: o.ms, Code: o.code})
	}
	return ex
}

// scrapeFleet reads every target's /metrics.json counter snapshot.
// Returns nil when any target could not be scraped — fleet stats are
// all-or-nothing so deltas never silently under-count a shard.
func scrapeFleet(ctx context.Context, client *http.Client, targets []string) []obs.Snapshot {
	snaps := make([]obs.Snapshot, 0, len(targets))
	for _, target := range targets {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, target+"/metrics.json", nil)
		if err != nil {
			return nil
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil
		}
		var snap obs.Snapshot
		derr := json.NewDecoder(resp.Body).Decode(&snap)
		_ = resp.Body.Close()
		if derr != nil || resp.StatusCode != http.StatusOK {
			return nil
		}
		snaps = append(snaps, snap)
	}
	return snaps
}

// fleetDelta folds per-target before/after snapshots into one level's
// fleet-wide counter deltas.
func fleetDelta(targets int, before, after []obs.Snapshot) *FleetStats {
	sum := func(name string) uint64 {
		var d uint64
		for i := range after {
			a := after[i].Counters[name]
			b := before[i].Counters[name]
			if a > b {
				d += a - b
			}
		}
		return d
	}
	fs := &FleetStats{
		Targets:     targets,
		Computes:    sum("dtr_serve_computes_total"),
		CacheHits:   sum("dtr_serve_cache_hits_total"),
		CacheMisses: sum("dtr_serve_cache_misses_total"),
		Forwarded:   sum("dtr_serve_forwarded_total"),
	}
	if tot := fs.CacheHits + fs.CacheMisses; tot > 0 {
		fs.CacheHitRate = float64(fs.CacheHits) / float64(tot)
	}
	return fs
}

// quantile reads the q-quantile from a sorted sample (nearest-rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
