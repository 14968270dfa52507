package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dtr/internal/obs"
)

// The audited CLI error convention: -h/-help is flag.ErrHelp (main exits
// 0), flag/config mistakes are obs.ErrUsage (main prints usage and exits 2),
// and everything else exits 1. These tests pin the classification run()
// hands to main for the -workers path and its neighbours.

func TestRunHelpIsErrHelp(t *testing.T) {
	err := run([]string{"-h"}, os.Stdout)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
	if errors.Is(err, obs.ErrUsage) {
		t.Fatal("-h must not be classified as a usage error (exit 2); it exits 0")
	}
}

func TestRunNegativeWorkersIsUsageError(t *testing.T) {
	err := run([]string{"-workers", "-2", "-model", "x.json", "metrics"}, os.Stdout)
	if !errors.Is(err, obs.ErrUsage) {
		t.Fatalf("-workers -2 returned %v, want obs.ErrUsage (exit 2)", err)
	}
}

func TestRunMalformedWorkersIsUsageError(t *testing.T) {
	err := run([]string{"-workers", "lots", "-model", "x.json", "metrics"}, os.Stdout)
	if !errors.Is(err, obs.ErrUsage) {
		t.Fatalf("-workers lots returned %v, want obs.ErrUsage (exit 2)", err)
	}
}

func TestRunMissingModelIsUsageError(t *testing.T) {
	err := run([]string{"metrics"}, os.Stdout)
	if !errors.Is(err, obs.ErrUsage) {
		t.Fatalf("missing -model returned %v, want obs.ErrUsage (exit 2)", err)
	}
}

// TestRunUncreatableTraceOutIsUsageError: a -trace-out that cannot be
// created is a flag's value that cannot be used, so it exits 2 as in
// dtrlab and dtradapt.
func TestRunUncreatableTraceOutIsUsageError(t *testing.T) {
	t.Cleanup(func() { obs.SetDefault(nil) })
	err := run([]string{"-model", "x.json", "-trace-out", filepath.Join(t.TempDir(), "missing", "x"), "metrics"}, os.Stdout)
	if !errors.Is(err, obs.ErrUsage) {
		t.Fatalf("uncreatable -trace-out returned %v, want obs.ErrUsage (exit 2)", err)
	}
}

func TestRunRuntimeErrorIsNotUsageError(t *testing.T) {
	err := run([]string{"-model", filepath.Join(t.TempDir(), "absent.json"), "metrics"}, os.Stdout)
	if err == nil {
		t.Fatal("absent model file must fail")
	}
	if errors.Is(err, obs.ErrUsage) || errors.Is(err, flag.ErrHelp) {
		t.Fatalf("runtime error %v misclassified; it must exit 1", err)
	}
}

// TestRunWorkersAcceptedOnHappyPath: -workers flows through run() into
// the System; the optimize answer is the same at any worker count.
func TestRunWorkersAcceptedOnHappyPath(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a small model")
	}
	spec := filepath.Join("..", "..", "examples", "specs", "testbed.json")
	if _, err := os.Stat(spec); err != nil {
		t.Skipf("example spec unavailable: %v", err)
	}
	for _, w := range []string{"1", "2"} {
		err := run([]string{"-model", spec, "-grid", "1024", "-workers", w,
			"optimize", "-objective", "reliability"}, os.Stdout)
		if err != nil {
			t.Fatalf("-workers %s: %v", w, err)
		}
	}
}

// TestRunValidatesLikeTheService: requests the service answers with a 400
// fail here with the service's own message (exit 1) instead of printing
// an empty table or silently dropping the field — and before any solver
// work: the rejected optimize leaves no solver_build span in the trace.
func TestRunValidatesLikeTheService(t *testing.T) {
	spec := filepath.Join("..", "..", "examples", "specs", "testbed.json")
	for _, c := range []struct{ args, want string }{
		{"cdf -points -3", "points: must be in"},
		{"metrics -deadline -7", "deadline: must be a non-negative finite number"},
		{"simulate -reps -5", "reps: must be in"},
		{"optimize -objective mean", "objective: mean is undefined with failure-prone servers"},
		{"optimize -objective reliability", ""},
	} {
		tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
		args := append([]string{"-model", spec, "-grid", "1024", "-trace-out", tracePath}, strings.Fields(c.args)...)
		var stdout bytes.Buffer
		err := run(args, &stdout)
		trace, rerr := os.ReadFile(tracePath)
		if rerr != nil {
			t.Fatal(rerr)
		}
		built := bytes.Contains(trace, []byte("solver_build"))
		if c.want == "" {
			if err != nil || !built {
				t.Errorf("%s: err %v, solver_build traced: %v; want a traced solve", c.args, err, built)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) || errors.Is(err, obs.ErrUsage) {
			t.Errorf("%s: returned %v, want a runtime error mentioning %q", c.args, err, c.want)
		}
		if stdout.Len() != 0 || built {
			t.Errorf("%s: rejected after work: stdout %q, solver_build traced: %v", c.args, stdout.String(), built)
		}
	}
}

// TestRunZeroFlagsAreTheWireDefaults: -points 0 and -reps 0 mean what a
// zero field means in a serve.Request — the verb's default.
func TestRunZeroFlagsAreTheWireDefaults(t *testing.T) {
	spec := filepath.Join("..", "..", "examples", "specs", "testbed.json")
	var stdout bytes.Buffer
	if err := run([]string{"-model", spec, "-grid", "1024", "cdf", "-points", "0"}, &stdout); err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(stdout.String(), "\n") - 2; rows != 20 {
		t.Errorf("cdf -points 0 printed %d rows, want the default 20:\n%s", rows, stdout.String())
	}
	stdout.Reset()
	if err := run([]string{"-model", spec, "simulate", "-reps", "0"}, &stdout); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "reps:        10000\n") {
		t.Errorf("simulate -reps 0 did not run the default 10000 replications:\n%s", stdout.String())
	}
}
