package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dtr/dist"
	"dtr/internal/adapt"
	"dtr/internal/ingest"
	"dtr/internal/obs"
	"dtr/internal/rngutil"
	"dtr/internal/trace"
	"dtr/modelspec"
)

// writeTrace captures a small synthetic two-server trace to path:
// exponential services (means 4 and 2) and two-task transfers with
// per-task mean 1.
func writeTrace(t *testing.T, path string, rounds int) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := trace.NewWriter(f)
	if err := w.Meta(2, "test"); err != nil {
		t.Fatal(err)
	}
	r := rngutil.Stream(91, 0)
	for i := 0; i < rounds; i++ {
		for s, m := range []float64{4, 2} {
			if err := w.Write(trace.Event{
				Kind: trace.KindService, Server: s,
				Value: dist.NewExponential(m).Sample(r),
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Write(trace.Event{
			Kind: trace.KindTransfer, Src: 0, Dst: 1, Tasks: 2,
			Value: dist.NewExponential(2).Sample(r),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestExitClassification pins the CLI error taxonomy: -h is ErrHelp
// (exit 0), flag/config mistakes are obs.ErrUsage (exit 2), runtime
// failures are plain errors (exit 1).
func TestExitClassification(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "run.jsonl")
	writeTrace(t, tr, 5)

	usage := [][]string{
		{"-trace", tr},                    // no -queues
		{"-queues", "12,6"},               // no -trace
		{"-trace", tr, "-queues", "12,6"}, // neither -once nor -follow
		{"-trace", tr, "-queues", "12,6", "-once", "-follow"},
		{"-trace", tr, "-queues", "12,x", "-once"}, // bad queues
		{"-trace", tr, "-queues", "-3,6", "-once"}, // negative queue
		{"-trace", tr, "-queues", "12,6", "-once", "-families", "cauchy"},
		{"-trace", tr, "-queues", "12,6", "-once", "-workers", "-2"},
		{"-trace", tr, "-queues", "12,6", "-once", "-objective", "qos"}, // no deadline
		{"-trace", tr, "-queues", "12,6", "-once", "extra"},
		{"-no-such-flag"},
		{"-trace", tr, "-ingest", "http://x", "-queues", "12,6", "-once"}, // both sources
		{"-ingest", "http://x", "-queues", "12,6", "-once"},               // no -tenant
		{"-trace", tr, "-tenant", "acme", "-queues", "12,6", "-once"},     // -tenant without -ingest
		{"-trace", tr, "-queues", "12,6", "-once", "-trace-out", filepath.Join(dir, "missing", "x")},
	}
	for _, args := range usage {
		err := run(args, io.Discard)
		if !errors.Is(err, obs.ErrUsage) {
			t.Errorf("run(%q) = %v, want obs.ErrUsage", strings.Join(args, " "), err)
		}
		if obs.Default() != nil {
			t.Fatalf("run(%q) left the default registry installed", strings.Join(args, " "))
		}
	}

	if err := run([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: %v, want flag.ErrHelp", err)
	}

	// Runtime failures must NOT be classified as usage errors.
	err := run([]string{"-trace", filepath.Join(dir, "missing.jsonl"),
		"-queues", "12,6", "-once"}, io.Discard)
	if err == nil || errors.Is(err, obs.ErrUsage) {
		t.Errorf("missing trace: %v, want plain runtime error", err)
	}
}

// TestOnce runs the batch mode end to end over a generated trace and
// checks the decision JSON plus the -spec-out / -policy-out files.
func TestOnce(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "run.jsonl")
	specPath := filepath.Join(dir, "spec.json")
	polPath := filepath.Join(dir, "policy.txt")
	writeTrace(t, tr, 200)

	var out bytes.Buffer
	err := run([]string{
		"-trace", tr, "-queues", "12,6", "-once",
		"-families", "exponential,gamma", "-grid", "1024",
		"-spec-out", specPath, "-policy-out", polPath,
	}, &out)
	if err != nil {
		t.Fatalf("run -once: %v", err)
	}

	var d adapt.Decision
	if err := json.Unmarshal(out.Bytes(), &d); err != nil {
		t.Fatalf("decision output is not JSON: %v\n%s", err, out.String())
	}
	if d.Reason != "forced" {
		t.Errorf("reason = %q, want forced", d.Reason)
	}
	if len(d.Policy) != 2 || d.PolicyString == "" {
		t.Errorf("decision has no 2-server policy: %+v", d.Policy)
	}
	if d.Spec == nil || len(d.Spec.Servers) != 2 {
		t.Fatalf("decision has no 2-server spec")
	}
	svc, err := d.Spec.Servers[0].Service.Dist()
	if err != nil {
		t.Fatal(err)
	}
	if m := svc.Mean(); m < 3 || m > 5 {
		t.Errorf("fitted service[0] mean = %.2f, want near 4", m)
	}

	specJSON, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatalf("-spec-out not written: %v", err)
	}
	var spec modelspec.SystemSpec
	if err := json.Unmarshal(specJSON, &spec); err != nil {
		t.Fatalf("-spec-out is not a spec: %v", err)
	}
	if err := spec.Validate(); err != nil {
		t.Errorf("-spec-out spec invalid: %v", err)
	}

	pol, err := os.ReadFile(polPath)
	if err != nil {
		t.Fatalf("-policy-out not written: %v", err)
	}
	if strings.TrimSpace(string(pol)) != d.PolicyString {
		t.Errorf("-policy-out %q != decision policy %q", pol, d.PolicyString)
	}
}

// TestOnceIngest runs the batch mode against a live ingest daemon
// instead of a trace file: the controller fetches one statistics
// snapshot and replans on the bounded-memory paths.
func TestOnceIngest(t *testing.T) {
	agg := ingest.New(ingest.Config{})
	r := rngutil.Stream(92, 0)
	for i := 0; i < 400; i++ {
		for s, m := range []float64{4, 2} {
			ev := trace.Event{Kind: trace.KindService, Server: s,
				Value: dist.NewExponential(m).Sample(r)}
			if err := agg.Observe("acme", ev); err != nil {
				t.Fatal(err)
			}
		}
		ev := trace.Event{Kind: trace.KindTransfer, Src: 0, Dst: 1, Tasks: 2,
			Value: dist.NewExponential(2).Sample(r)}
		if err := agg.Observe("acme", ev); err != nil {
			t.Fatal(err)
		}
	}
	mux := http.NewServeMux()
	ingest.NewServer(agg, nil, 0).Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var out bytes.Buffer
	err := run([]string{
		"-ingest", ts.URL, "-tenant", "acme", "-queues", "12,6", "-once",
		"-families", "exponential,gamma", "-grid", "1024",
	}, &out)
	if err != nil {
		t.Fatalf("run -ingest -once: %v", err)
	}
	var d adapt.Decision
	if err := json.Unmarshal(out.Bytes(), &d); err != nil {
		t.Fatalf("decision output is not JSON: %v\n%s", err, out.String())
	}
	if d.Reason != "forced" {
		t.Errorf("reason = %q, want forced", d.Reason)
	}
	if d.Spec == nil || len(d.Spec.Servers) != 2 {
		t.Fatalf("decision has no 2-server spec")
	}
	svc, err := d.Spec.Servers[0].Service.Dist()
	if err != nil {
		t.Fatal(err)
	}
	if m := svc.Mean(); m < 3 || m > 5 {
		t.Errorf("fitted service[0] mean = %.2f, want near 4", m)
	}
	if len(d.Policy) != 2 || d.PolicyString == "" {
		t.Errorf("decision has no 2-server policy: %+v", d.Policy)
	}

	// An unknown tenant is a runtime error, not usage.
	err = run([]string{"-ingest", ts.URL, "-tenant", "ghost",
		"-queues", "12,6", "-once"}, io.Discard)
	if err == nil || errors.Is(err, obs.ErrUsage) {
		t.Errorf("unknown tenant: %v, want plain runtime error", err)
	}
}
