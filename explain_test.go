package dtr_test

import (
	"encoding/json"
	"strings"
	"testing"

	"dtr"
)

func TestExplainTwoServer(t *testing.T) {
	sys, err := dtr.NewSystem(paperModel(true), []int{20, 10})
	if err != nil {
		t.Fatal(err)
	}
	sys.GridN = 1 << 12

	ex, err := sys.Explain(dtr.ExplainOptions{Probe: true})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Schema != dtr.ExplainSchema || ex.Objective != "mean" || ex.Servers != 2 {
		t.Fatalf("header wrong: %+v", ex)
	}

	// The artifact's policy and value must be bit-identical to the plain
	// optimizer's.
	wantP, wantV, err := sys.OptimalMeanPolicy()
	if err != nil {
		t.Fatal(err)
	}
	if ex.Value == nil || *ex.Value != wantV {
		t.Fatalf("value %v != OptimalMeanPolicy %v", ex.Value, wantV)
	}
	for i := range wantP {
		for j := range wantP[i] {
			if ex.Policy[i][j] != wantP[i][j] {
				t.Fatalf("policy %v != OptimalMeanPolicy %v", ex.Policy, wantP)
			}
		}
	}

	if ex.Solver == nil || ex.Solver.Folds == 0 || ex.Solver.GridN != 1<<12 {
		t.Fatalf("solver diagnostics missing or empty: %+v", ex.Solver)
	}
	if ex.Sweep == nil || ex.Sweep.Evaluated == 0 || ex.Sweep.Coverage <= 0 {
		t.Fatalf("sweep diagnostics missing or empty: %+v", ex.Sweep)
	}
	if ex.Algorithm1 != nil {
		t.Fatal("two-server artifact carries Algorithm1 diagnostics")
	}
	if ex.Probe == nil {
		t.Fatal("probe requested but absent")
	}
	if ex.Probe.CoarseGridN != 1<<11 || ex.Probe.Fine == nil || ex.Probe.Coarse == nil || ex.Probe.AbsError == nil {
		t.Fatalf("probe incomplete: %+v", ex.Probe)
	}

	// The artifact must be finite JSON (fptr strips NaN/Inf).
	data, err := json.Marshal(ex)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "NaN") {
		t.Fatalf("artifact not JSON-finite: %s", data)
	}
}

func TestExplainObjectives(t *testing.T) {
	sys, err := dtr.NewSystem(paperModel(false), []int{12, 6})
	if err != nil {
		t.Fatal(err)
	}
	sys.GridN = 1 << 11

	if _, err := sys.Explain(dtr.ExplainOptions{Objective: "qos"}); err == nil {
		t.Fatal("qos without deadline should error")
	}
	if _, err := sys.Explain(dtr.ExplainOptions{Objective: "cheapest"}); err == nil {
		t.Fatal("unknown objective should error")
	}

	ex, err := sys.Explain(dtr.ExplainOptions{Objective: "qos", Deadline: 40, Probe: true})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Objective != "qos" || ex.Deadline != 40 {
		t.Fatalf("header wrong: %+v", ex)
	}
	wantP, wantV, err := sys.OptimalQoSPolicy(40)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Value == nil || *ex.Value != wantV {
		t.Fatalf("value %v != OptimalQoSPolicy %v", ex.Value, wantV)
	}
	_ = wantP

	// On an unreliable model a mean-probe artifact must drop the
	// undefined metrics instead of emitting NaN.
	exm, err := sys.Explain(dtr.ExplainOptions{Objective: "reliability", Probe: true})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(exm)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "NaN") {
		t.Fatalf("artifact not JSON-finite: %s", data)
	}
}

func TestExplainMultiServer(t *testing.T) {
	m := &dtr.Model{}
	fam := paperModel(true)
	m.Service = append(fam.Service[:2:2], fam.Service[0])
	m.Failure = append(fam.Failure[:2:2], fam.Failure[0])
	m.Transfer = fam.Transfer

	sys, err := dtr.NewSystem(m, []int{15, 8, 4})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := sys.Explain(dtr.ExplainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Servers != 3 || ex.Algorithm1 == nil {
		t.Fatalf("multi-server artifact wrong: %+v", ex)
	}
	if ex.Solver != nil || ex.Sweep != nil || ex.Value != nil {
		t.Fatalf("multi-server artifact carries two-server sections: %+v", ex)
	}
	if ex.Algorithm1.Servers != 3 || ex.Algorithm1.PairSolves == 0 {
		t.Fatalf("Algorithm1 diagnostics empty: %+v", ex.Algorithm1)
	}
	if len(ex.Policy) != 3 {
		t.Fatalf("policy shape wrong: %+v", ex.Policy)
	}
}

// TestExplainProbeAfterMetric: the probe must work on a System whose
// solver an earlier metric call already built (it used to fail with
// "grid-error probe disabled"), and answer what a fresh System answers.
func TestExplainProbeAfterMetric(t *testing.T) {
	newSys := func() *dtr.System {
		sys, err := dtr.NewSystem(paperModel(true), []int{20, 10})
		if err != nil {
			t.Fatal(err)
		}
		sys.GridN = 1 << 10
		return sys
	}
	used := newSys()
	if _, err := used.MeanTime(dtr.Policy2(3, 0)); err != nil {
		t.Fatal(err)
	}
	got, err := used.Explain(dtr.ExplainOptions{Probe: true})
	if err != nil {
		t.Fatalf("explain with probe after a metric call: %v", err)
	}
	want, err := newSys().Explain(dtr.ExplainOptions{Probe: true})
	if err != nil {
		t.Fatal(err)
	}
	gotProbe, _ := json.Marshal(got.Probe)
	wantProbe, _ := json.Marshal(want.Probe)
	if got.Probe == nil || string(gotProbe) != string(wantProbe) {
		t.Fatalf("probe after a metric call %s, fresh system %s", gotProbe, wantProbe)
	}
}
