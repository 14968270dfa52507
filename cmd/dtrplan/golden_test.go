package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from this build's output")

// goldenSpecs are the models the goldens cover: the two shipped examples
// (a failure-prone pair, a reliable five-server cluster) and a reliable
// pair that declares a replication factor.
var goldenSpecs = map[string]string{
	"testbed": filepath.Join("..", "..", "examples", "specs", "testbed.json"),
	"cluster": filepath.Join("..", "..", "examples", "specs", "cluster.json"),
	"pair":    filepath.Join("testdata", "pair.json"),
}

// goldenCases are the invocations pinned per model; {obj} is the
// model's objective (mean needs reliable servers) and {plan} a scratch
// path for the explain artifact. The files under testdata/ were captured
// from the commit before dtrplan became a renderer over serve.Exec, so
// they pin that refactor byte for byte; an invocation that fails is
// pinned as its stdout so far plus an "error" line. The cluster's metrics
// and cdf goldens were such lines until the solver tables were indexed by
// server and are this build's answers since; pair.bounds-nodeadline's mean
// moved in its last digit with them (the tail mass now counts at the
// horizon, not one step beyond: TestBoundsPinned in internal/direct).
var goldenCases = []struct{ name, args string }{
	{"optimize", "optimize -objective {obj}"},
	{"optimize-qos", "optimize -objective qos -deadline 180"},
	{"optimize-repl", "optimize -objective {obj} -replicate-max 2 -replicate-budget 1"},
	{"explain-stdout", "optimize -objective {obj} -explain -"},
	{"explain-probe", "optimize -objective {obj} -explain {plan} -probe"},
	{"explain-repl", "optimize -objective {obj} -explain {plan} -replicate-max 2"},
	{"metrics", "metrics -policy 0>1:3 -deadline 180"},
	{"metrics-nodeadline", "metrics -policy 0>1:3"},
	{"simulate", "simulate -policy 0>1:3 -reps 2000 -deadline 180"},
	{"simulate-defaults", "simulate -policy 0>1:3 -reps 500 -seed 7"},
	{"bounds", "bounds -policy 0>1:3 -deadline 180"},
	{"bounds-nodeadline", "bounds -policy 0>1:3,1>0:2"},
	{"cdf", "cdf -policy 0>1:3 -points 10"},
	{"cdf-tmax", "cdf -policy 0>1:3 -tmax 400"},
}

func TestGoldenStdout(t *testing.T) {
	for spec, path := range goldenSpecs {
		obj := "mean"
		if spec == "testbed" {
			obj = "reliability"
		}
		for _, c := range goldenCases {
			t.Run(spec+"."+c.name, func(t *testing.T) {
				plan := filepath.Join(t.TempDir(), "plan.json")
				args := []string{"-model", path, "-grid", "1024", "-workers", "2"}
				for _, a := range strings.Fields(c.args) {
					a = strings.ReplaceAll(a, "{obj}", obj)
					args = append(args, strings.ReplaceAll(a, "{plan}", plan))
				}
				var stdout bytes.Buffer
				err := run(args, &stdout)
				got := bytes.ReplaceAll(stdout.Bytes(), []byte(plan), []byte("plan.json"))
				if err != nil {
					got = append(got, "error\n"...)
				}
				checkGolden(t, filepath.Join("testdata", spec+"."+c.name+".golden"), got)
				if artifact, err := os.ReadFile(plan); err == nil {
					checkGolden(t, filepath.Join("testdata", spec+"."+c.name+".plan.golden"), artifact)
				}
			})
		}
	}
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs:\n--- got\n%s--- want\n%s", path, got, want)
	}
}
