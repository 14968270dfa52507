package adapt

import (
	"bytes"
	"context"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"testing"

	"dtr"
	"dtr/dist"
	"dtr/dist/fit"
	"dtr/internal/obs"
	"dtr/internal/rngutil"
	"dtr/internal/serve"
	"dtr/internal/sim"
	"dtr/internal/trace"
)

// fastFams keeps controller tests quick: the slow profile-scan families
// are left out and the generators below only use these shapes anyway.
var fastFams = []fit.Family{fit.FamilyExponential, fit.FamilyGamma}

// synthEvents emits n rounds of synthetic observations: one service
// completion per server (exponential with the given means) and one
// two-task transfer (exponential, the given per-task mean).
func synthEvents(r *rand.Rand, n int, svcMean []float64, perTask float64) []trace.Event {
	var evs []trace.Event
	for i := 0; i < n; i++ {
		for s, m := range svcMean {
			evs = append(evs, trace.Event{
				Kind: trace.KindService, Server: s,
				Value: dist.NewExponential(m).Sample(r),
			})
		}
		evs = append(evs, trace.Event{
			Kind: trace.KindTransfer, Src: 0, Dst: 1, Tasks: 2,
			Value: dist.NewExponential(2 * perTask).Sample(r),
		})
	}
	return evs
}

// feed pushes events through the controller, returning every decision.
func feed(t *testing.T, c *Controller, evs []trace.Event) []*Decision {
	t.Helper()
	var out []*Decision
	for _, ev := range evs {
		d, err := c.Observe(context.Background(), ev)
		if err != nil {
			t.Fatalf("Observe: %v", err)
		}
		if d != nil {
			out = append(out, d)
		}
	}
	return out
}

func TestControllerBootstrap(t *testing.T) {
	c, err := New(Config{
		Queues: []int{12, 6}, Families: fastFams,
		MinObs: 30, CheckEvery: 100, GridN: 1 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rngutil.Stream(21, 0)
	decisions := feed(t, c, synthEvents(r, 200, []float64{4, 2}, 1))
	if len(decisions) != 1 {
		t.Fatalf("got %d decisions, want exactly 1 bootstrap", len(decisions))
	}
	d := decisions[0]
	if d.Reason != "bootstrap" {
		t.Errorf("reason = %q, want bootstrap", d.Reason)
	}
	if d.Spec == nil || len(d.Spec.Servers) != 2 {
		t.Fatalf("bootstrap decision has no 2-server spec: %+v", d.Spec)
	}
	if err := d.Spec.Validate(); err != nil {
		t.Errorf("fitted spec invalid: %v", err)
	}
	if len(d.Policy) != 2 || d.PolicyString == "" {
		t.Errorf("no policy in decision: %+v", d.Policy)
	}
	if !c.Fitted() {
		t.Error("controller not marked fitted after bootstrap")
	}
}

func TestControllerDriftAndReplan(t *testing.T) {
	obs.SetDefault(obs.NewRegistry())
	defer obs.SetDefault(nil)
	c, err := New(Config{
		Queues: []int{12, 6}, Families: fastFams,
		MinObs: 30, CheckEvery: 100, Window: 1200, GridN: 1 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rngutil.Stream(22, 0)
	if n := len(feed(t, c, synthEvents(r, 300, []float64{4, 2}, 1))); n != 1 {
		t.Fatalf("phase A produced %d decisions, want 1 bootstrap", n)
	}

	// Server 0 slows down 3×; the windowed mean and KS statistics must
	// trip the thresholds once enough drifted observations arrive.
	decisions := feed(t, c, synthEvents(r, 500, []float64{12, 2}, 1))
	if len(decisions) == 0 {
		t.Fatal("no drift decision after a 3× service-mean shift")
	}
	first := decisions[0]
	if first.Reason != "drift" {
		t.Errorf("reason = %q, want drift", first.Reason)
	}
	if first.Channel != "service[0]" {
		t.Errorf("drifted channel = %q, want service[0]", first.Channel)
	}
	if first.KS <= 0 && first.RelMean <= 0 {
		t.Errorf("drift decision carries no scores: %+v", first)
	}
	// The final refit must track the new regime.
	last := decisions[len(decisions)-1]
	d0, err := last.Spec.Servers[0].Service.Dist()
	if err != nil {
		t.Fatal(err)
	}
	if m := d0.Mean(); m < 8 {
		t.Errorf("refitted service[0] mean = %.2f, want near 12 after drift", m)
	}
	if fits := adaptFits.Value(); fits < 2 {
		t.Errorf("fits counter = %d, want >= 2", fits)
	}
}

// TestClosedLoopBeatsStalePolicy is the acceptance test for the whole
// subsystem: tasks are allocated [40, 10] under the stale belief that
// server 0 is the fast one, but in truth the servers have swapped
// speeds. The controller fits the trace generated under the true model
// and replans; the refit policy must achieve a lower simulated mean
// completion time under the true model than the stale policy does.
func TestClosedLoopBeatsStalePolicy(t *testing.T) {
	newModel := func(m0, m1 float64) *dtr.Model {
		return &dtr.Model{
			Service: []dist.Dist{dist.NewExponential(m0), dist.NewExponential(m1)},
			Failure: []dist.Dist{dist.Never{}, dist.Never{}},
			Transfer: func(tasks, src, dst int) dist.Dist {
				if tasks < 1 {
					tasks = 1
				}
				return dist.NewExponential(0.2 * float64(tasks))
			},
		}
	}
	queues := []int{40, 10}
	stale := newModel(1, 3) // believed: server 0 fast
	truth := newModel(3, 1) // actual: server 0 slowed 3×, server 1 sped up

	// The stale policy: optimal for the believed model.
	sysStale, err := dtr.NewSystem(stale, queues)
	if err != nil {
		t.Fatal(err)
	}
	sysStale.GridN = 1 << 12
	stalePol, _, err := sysStale.OptimalMeanPolicy()
	if err != nil {
		t.Fatal(err)
	}

	// Capture a trace of the true system. The capture runs a mildly
	// exploratory policy so both transfer directions are observed.
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	if err := tw.Meta(2, "sim"); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Estimate(truth, queues, dtr.Policy2(8, 4), sim.Options{
		Reps: 50, Seed: 31, Workers: 4, Trace: tw,
	}); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := trace.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Close the loop: the controller ingests the trace and replans.
	c, err := New(Config{
		Queues: queues, Families: fastFams,
		MinObs: 50, CheckEvery: 1000, Window: 1 << 16, GridN: 1 << 12, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	decisions := feed(t, c, evs)
	if len(decisions) == 0 {
		t.Fatal("controller never bootstrapped from the captured trace")
	}
	refit := decisions[len(decisions)-1]

	// Ground truth comparison under the true model.
	sysTruth, err := dtr.NewSystem(truth, queues)
	if err != nil {
		t.Fatal(err)
	}
	sysTruth.Workers = 4
	evalMean := func(p dtr.Policy) float64 {
		est, err := sysTruth.Simulate(p, dtr.SimOptions{Reps: 800, Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		return est.MeanTime
	}
	staleMean := evalMean(stalePol)
	refitMean := evalMean(refit.Policy)
	t.Logf("stale %s → mean %.2f; refit %s → mean %.2f",
		dtr.FormatPolicy(stalePol), staleMean, refit.PolicyString, refitMean)
	if !(refitMean < staleMean) {
		t.Fatalf("refit policy (mean %.2f) does not beat stale policy (mean %.2f)", refitMean, staleMean)
	}
}

// TestHTTPPlanner drives the controller through a real dtrserved
// handler: /v1/fit for the fits, /v1/optimize for the policy.
func TestHTTPPlanner(t *testing.T) {
	mux := http.NewServeMux()
	serve.New(serve.Config{}).Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c, err := New(Config{
		Queues:  []int{12, 6},
		Planner: &HTTP{BaseURL: ts.URL, Objective: "mean"},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rngutil.Stream(23, 0)
	feed(t, c, synthEvents(r, 300, []float64{4, 2}, 1))
	d, err := c.Refit(context.Background())
	if err != nil {
		t.Fatalf("Refit over HTTP: %v", err)
	}
	if d.Reason != "forced" || len(d.Policy) != 2 || d.Spec == nil {
		t.Fatalf("bad HTTP decision: %+v", d)
	}
	if err := d.Spec.Validate(); err != nil {
		t.Errorf("HTTP-fitted spec invalid: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},                                      // no queues
		{Queues: []int{-1, 2}},                  // negative queue
		{Queues: []int{1, 2}, Objective: "x"},   // unknown objective
		{Queues: []int{1, 2}, Objective: "qos"}, // qos without deadline
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v): want error", cfg)
		}
	}
	if _, err := New(Config{Queues: []int{1, 2}}); err != nil {
		t.Errorf("minimal valid config rejected: %v", err)
	}
}

// TestObserveRejectsInvalid checks event validation at the intake.
func TestObserveRejectsInvalid(t *testing.T) {
	c, err := New(Config{Queues: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Observe(context.Background(), trace.Event{Kind: "warp", Value: 1})
	if err == nil {
		t.Fatal("invalid event accepted")
	}
	if _, err := c.Refit(context.Background()); err == nil {
		t.Fatal("Refit with an empty window should fail")
	}
}
