package exper

import (
	"strings"
	"testing"

	"dtr/internal/policy"
)

// TestTable2Shapes: the five-server reproduction must preserve the
// paper's orderings at quick fidelity: the non-Markovian Algorithm-1
// policy is not worse than the exponential-derived one (within MC noise),
// and the optimal-allocation benchmark is the best of all.
func TestTable2MeanShape(t *testing.T) {
	fid := Quick()
	fid.MCReps = 1200
	tab, err := Table2(true, fid)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("Table II rows: %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		vTrue := cell(t, row[1])
		hTrue := cell(t, row[2])
		vExp := cell(t, row[3])
		hExp := cell(t, row[4])
		vBench := cell(t, row[7])
		slack := 3 * (hTrue + hExp)
		if vTrue > vExp+slack {
			t.Errorf("%s: non-Markovian policy (%.1f) worse than exponential policy (%.1f)", row[0], vTrue, vExp)
		}
		if vBench > vTrue+slack+0.05*vTrue {
			t.Errorf("%s: benchmark (%.1f) should beat Algorithm 1 (%.1f)", row[0], vBench, vTrue)
		}
	}
}

func TestTable2ReliabilityShape(t *testing.T) {
	fid := Quick()
	fid.MCReps = 1200
	tab, err := Table2(false, fid)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		vTrue := cell(t, row[1])
		vBench := cell(t, row[7])
		if vTrue < 0 || vTrue > 1 || vBench < 0 || vBench > 1 {
			t.Fatalf("reliability out of range: %v", row)
		}
		hTrue := cell(t, row[2])
		hBench := cell(t, row[8])
		if vBench+3*(hTrue+hBench)+0.02 < vTrue {
			t.Errorf("%s: optimal allocation (%.3f) should not lose to Algorithm 1 (%.3f)", row[0], vBench, vTrue)
		}
	}
}

// TestFig4ABSelection: the fitting pipeline must recover the paper's
// model choices from the synthetic testbed samples — Pareto for services,
// (shifted) gamma for transfers.
func TestFig4ABSelection(t *testing.T) {
	fid := Quick()
	fid.FitSamples = 8000
	tabs, err := Fig4AB(fid)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 {
		t.Fatal("Fig4AB should produce two tables")
	}
	if got := tabs[0].Rows[0][0]; got != "Pareto" {
		t.Fatalf("service-time winner %q, want Pareto\n%s", got, tabs[0].Render())
	}
	if got := tabs[1].Rows[0][0]; got != "Shifted-Gamma" && got != "Gamma" {
		t.Fatalf("transfer-time winner %q, want (Shifted-)Gamma\n%s", got, tabs[1].Render())
	}
}

// TestFig4COptimum: the testbed scenario's reliability-optimal policy
// must sit near the paper's L12 = 26, L21 = 0 with reliability ≈ 0.60.
func TestFig4COptimum(t *testing.T) {
	fid := Quick()
	fid.GridN = 1 << 12
	ds, err := newTestbedSolver(TestbedModel(false), fid)
	if err != nil {
		t.Fatal(err)
	}
	res, err := policy.Optimize2(ds, TBM1, TBM2, policy.ObjReliability, policy.Options2{Workers: fid.Workers})
	if err != nil {
		t.Fatal(err)
	}
	if res.L12 < 15 || res.L12 > 38 {
		t.Fatalf("optimal L12 = %d, paper finds 26", res.L12)
	}
	if res.L21 != 0 {
		t.Fatalf("optimal L21 = %d, paper finds 0", res.L21)
	}
	// The optimum location matches the paper (≈26); the absolute level
	// with the paper's stated parameters is ≈0.31 (see EXPERIMENTS.md —
	// the printed 0.6007 is not reachable from the printed means).
	if res.Value < 0.22 || res.Value > 0.45 {
		t.Fatalf("optimal reliability %.4f, expected ≈0.31 from the stated parameters", res.Value)
	}
}

// TestFig4CAgreement: theory, simulation and the wall-clock testbed must
// agree on the reliability curve within Monte-Carlo tolerances.
func TestFig4CAgreement(t *testing.T) {
	fid := Quick()
	fid.SweepStride = 25 // three points across the sweep
	fid.MCReps = 600
	fid.TestbedReps = 10
	tab, err := Fig4C(fid)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		theory := cell(t, row[1])
		mc := cell(t, row[2])
		mcHalf := cell(t, row[3])
		tbed := cell(t, row[4])
		tbHalf := cell(t, row[5])
		if diff := abs(theory - mc); diff > 3*mcHalf+0.02 {
			t.Errorf("L12=%s: theory %.3f vs MC %.3f ± %.3f", row[0], theory, mc, mcHalf)
		}
		if diff := abs(theory - tbed); diff > 3*tbHalf+0.05 {
			t.Errorf("L12=%s: theory %.3f vs testbed %.3f ± %.3f", row[0], theory, tbed, tbHalf)
		}
	}
}

func TestAblationGridStepConverges(t *testing.T) {
	tab, err := AblationGridStep(Quick())
	if err != nil {
		t.Fatal(err)
	}
	errs := column(t, tab, "abs err vs exact")
	if errs[len(errs)-1] > errs[0] {
		t.Fatalf("grid refinement did not reduce error: %v", errs)
	}
}

func TestAblationKRuns(t *testing.T) {
	fid := Quick()
	fid.MCReps = 300
	tab, err := AblationK(fid)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if cell(t, row[1]) <= 0 {
			t.Fatalf("non-positive mean: %v", row)
		}
	}
}

func TestAblationDelaySweepMonotoneish(t *testing.T) {
	fid := Quick()
	tab, err := AblationDelaySweep(fid)
	if err != nil {
		t.Fatal(err)
	}
	errs := column(t, tab, "max rel err (%)")
	if errs[len(errs)-1] <= errs[0] {
		t.Fatalf("Markovian error should grow with delay: %v", errs)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Columns: []string{"a", "b"},
	}
	tab.AddRow("1", "hello, world")
	tab.Notes = append(tab.Notes, "a note")
	out := tab.Render()
	if !strings.Contains(out, "== demo ==") || !strings.Contains(out, "note: a note") {
		t.Fatalf("render:\n%s", out)
	}
	csv := tab.CSV()
	if !strings.Contains(csv, "\"hello, world\"") {
		t.Fatalf("csv quoting:\n%s", csv)
	}
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Fatalf("csv header:\n%s", csv)
	}
}
