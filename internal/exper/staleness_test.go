package exper

import (
	"testing"

	"dtr/dist"
	"dtr/internal/estimate"
)

func TestStalenessExperiment(t *testing.T) {
	fid := Quick()
	fid.MCReps = 600
	tab, err := Staleness(fid)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	// Staleness must increase with the packet delay.
	stale := column(t, tab, "mean staleness (s)")
	if stale[len(stale)-1] <= stale[0] {
		t.Fatalf("staleness should grow with packet delay: %v", stale)
	}
	// Estimation error must grow too.
	errs := column(t, tab, "max est err (tasks)")
	if errs[len(errs)-1] <= errs[0] {
		t.Fatalf("estimate error should grow with staleness: %v", errs)
	}
	// Policy quality: the perfect-information loss is ~0 at delay 0 and
	// non-negative everywhere (within simulation noise).
	losses := column(t, tab, "loss vs perfect (%)")
	if losses[0] > 3 {
		t.Fatalf("fresh information should cost ~nothing: %v", losses)
	}
	for _, l := range losses {
		if l < -8 {
			t.Fatalf("stale policy outperforms perfect beyond noise: %v", losses)
		}
	}
}

func TestBuildPolicyFromStateHook(t *testing.T) {
	m := Table2Model(dist.FamilyPareto1, true)
	ex := &estimate.Exchange{Model: m, Period: 2, Seed: 3}
	snap, err := ex.Take(Table2Initial, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := buildPolicyFromState(m, snap, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(snap.Queues); err != nil {
		t.Fatal(err)
	}
}

func TestExtensionsExperiment(t *testing.T) {
	fid := Quick()
	tab, err := Extensions(fid)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	// Deterministic has zero variance, exponential mean², Pareto largest.
	vars := column(t, tab, "Var(W1)")
	if vars[2] != 0 {
		t.Fatalf("deterministic variance should be 0: %v", vars)
	}
	// Weibull(0.7) is over-dispersed relative to the exponential (the
	// finite-variance Pareto 1 is actually *under*-dispersed — its
	// distinguishing feature is the tail, not the variance).
	if vars[3] <= vars[0] {
		t.Fatalf("Weibull variance should exceed exponential: %v", vars)
	}
	// All optima positive; degradation non-negative.
	for _, row := range tab.Rows {
		if cell(t, row[3]) <= 0 {
			t.Fatalf("non-positive optimum: %v", row)
		}
		if cell(t, row[5]) < -1e-6 {
			t.Fatalf("negative degradation: %v", row)
		}
	}
}
