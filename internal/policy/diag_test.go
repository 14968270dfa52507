package policy

import (
	"testing"

	"dtr/dist"
)

// TestSweepDiagnostics: Optimize2 must fill the sweep diagnostics
// without changing the search result. The two runs sweep separate
// tables, so the second is a sweep and not the first read back.
func TestSweepDiagnostics(t *testing.T) {
	m := model2(dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1), 0, 0, 1)
	s := solver2(t, m, 40, 1<<12, 160)

	plain, err := Optimize2(solver2(t, m, 40, 1<<12, 160), 24, 12, ObjMeanTime, Options2{})
	if err != nil {
		t.Fatal(err)
	}
	var d SweepDiagnostics
	withDiag, err := Optimize2(s, 24, 12, ObjMeanTime, Options2{Diag: &d})
	if err != nil {
		t.Fatal(err)
	}
	if plain != withDiag {
		t.Fatalf("attaching Diag changed the result:\n%+v\n%+v", plain, withDiag)
	}
	if d.Feasible == 0 || d.Evaluated == 0 || d.Batches == 0 {
		t.Fatalf("diagnostics not filled: %+v", d)
	}
	if d.Evaluated != withDiag.Evaluations {
		t.Fatalf("diag evaluated %d != result evaluations %d", d.Evaluated, withDiag.Evaluations)
	}
	if d.Coverage <= 0 || d.Coverage > 1 {
		t.Fatalf("coverage out of (0,1]: %+v", d)
	}
	if d.Exhaustive {
		t.Fatal("coarse-to-fine search flagged exhaustive")
	}
	if d.Evaluated >= d.Feasible {
		t.Fatalf("coarse-to-fine should evaluate a strict subset: %+v", d)
	}

	var de SweepDiagnostics
	if _, err := Optimize2(s, 24, 12, ObjMeanTime, Options2{Exhaustive: true, Diag: &de}); err != nil {
		t.Fatal(err)
	}
	if !de.Exhaustive || de.Evaluated != de.Feasible || de.Coverage != 1 {
		t.Fatalf("exhaustive diagnostics wrong: %+v", de)
	}
}

// TestAlg1Diagnostics: Algorithm 1 must report per-row convergence
// telemetry without changing the policy it emits.
func TestAlg1Diagnostics(t *testing.T) {
	m := fiveServer(dist.FamilyPareto1, 1, true)
	queues := []int{80, 50, 30, 25, 15}

	plain, err := Algorithm1(m, queues, Alg1Options{Objective: ObjMeanTime, K: 3, GridN: 1 << 11})
	if err != nil {
		t.Fatal(err)
	}
	var d Alg1Diagnostics
	withDiag, err := Algorithm1(m, queues, Alg1Options{Objective: ObjMeanTime, K: 3, GridN: 1 << 11, Diag: &d})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		for j := range plain[i] {
			if plain[i][j] != withDiag[i][j] {
				t.Fatalf("attaching Diag changed the policy:\n%v\n%v", plain, withDiag)
			}
		}
	}
	if d.Servers != 5 || d.K != 3 {
		t.Fatalf("header wrong: %+v", d)
	}
	if d.PairSolves == 0 {
		t.Fatal("no pair solves counted")
	}
	if len(d.Rows) == 0 {
		t.Fatal("no row diagnostics")
	}
	if d.Converged+d.Capped != len(d.Rows) {
		t.Fatalf("converged %d + capped %d != rows %d", d.Converged, d.Capped, len(d.Rows))
	}
	for _, r := range d.Rows {
		if r.Candidates <= 0 {
			t.Fatalf("row without candidates recorded: %+v", r)
		}
		if r.Iterations < 1 || r.Iterations > 3 {
			t.Fatalf("row iterations out of [1,K]: %+v", r)
		}
		if len(r.Sweeps) != r.Iterations {
			t.Fatalf("row has %d sweep records for %d iterations", len(r.Sweeps), r.Iterations)
		}
		if r.Converged && r.Sweeps[len(r.Sweeps)-1].MaxDelta != 0 {
			t.Fatalf("converged row with nonzero final maxDelta: %+v", r)
		}
		if !r.Converged && r.Iterations != 3 {
			t.Fatalf("capped row stopped before K: %+v", r)
		}
	}
}
