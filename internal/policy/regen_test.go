package policy

import (
	"math"
	"testing"

	"dtr/dist"
	"dtr/internal/core"
)

// TestOptimize2RegenMatchesDirect: the paper's own computational path
// (regeneration recursion under the optimizer) must locate the same
// optimum as the convolution solver on a small non-Markovian workload.
func TestOptimize2RegenMatchesDirect(t *testing.T) {
	m := model2(dist.NewPareto(2.5, 2), dist.NewUniform(0.4, 1.2), 0, 0, 0.6)
	const m1, m2 = 5, 3

	sv, err := core.NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	sv.Step = 0.05
	sv.Horizon = 60
	sv.AgeCap = 20

	regen, err := Optimize2Regen(sv, m1, m2, ObjMeanTime, Options2{})
	if err != nil {
		t.Fatal(err)
	}
	ds := solver2(t, m, m1+m2, 1<<12, 60)
	direct, err := Optimize2(ds, m1, m2, ObjMeanTime, Options2{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(regen.Value-direct.Value) > 0.03*(1+direct.Value) {
		t.Fatalf("optimal values diverge: regen %.4f vs direct %.4f", regen.Value, direct.Value)
	}
	// The argmin may shift by one task along a flat valley; values at
	// each other's optima must be near-optimal.
	atRegen, err := ds.MeanTime(m1, m2, regen.L12, regen.L21)
	if err != nil {
		t.Fatal(err)
	}
	if atRegen > direct.Value*1.03 {
		t.Fatalf("regen-chosen policy (%d,%d)=%.4f is not near-optimal (best %.4f)",
			regen.L12, regen.L21, atRegen, direct.Value)
	}
	if regen.Evaluations != (m1+1)*(m2+1) {
		t.Fatalf("exhaustive sweep should evaluate %d policies, did %d", (m1+1)*(m2+1), regen.Evaluations)
	}
}

// TestOptimize2RegenReliability: same agreement for the reliability
// objective with failure-prone servers.
func TestOptimize2RegenReliability(t *testing.T) {
	m := model2(dist.NewPareto(2.5, 1), dist.NewExponential(0.8), 12, 8, 0.5)
	const m1, m2 = 4, 2

	sv, err := core.NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	sv.Step = 0.05
	sv.Horizon = 60
	sv.AgeCap = 20

	regen, err := Optimize2Regen(sv, m1, m2, ObjReliability, Options2{})
	if err != nil {
		t.Fatal(err)
	}
	ds := solver2(t, m, m1+m2, 1<<12, 60)
	direct, err := Optimize2(ds, m1, m2, ObjReliability, Options2{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(regen.Value-direct.Value) > 0.03 {
		t.Fatalf("reliability optima diverge: %.4f vs %.4f", regen.Value, direct.Value)
	}
	atRegen, err := ds.Reliability(m1, m2, regen.L12, regen.L21)
	if err != nil {
		t.Fatal(err)
	}
	if atRegen < direct.Value-0.03 {
		t.Fatalf("regen policy not near-optimal: %.4f vs %.4f", atRegen, direct.Value)
	}
}

func TestOptimize2RegenValidation(t *testing.T) {
	m := model2(dist.NewExponential(1), dist.NewExponential(1), 10, 0, 1)
	sv, err := core.NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Optimize2Regen(sv, 2, 2, ObjMeanTime, Options2{}); err == nil {
		t.Fatal("mean objective with failures should error")
	}
	if _, err := Optimize2Regen(sv, 2, 2, ObjQoS, Options2{}); err == nil {
		t.Fatal("QoS without deadline should error")
	}
	if _, err := Optimize2Regen(sv, -1, 2, ObjReliability, Options2{}); err == nil {
		t.Fatal("negative workload should error")
	}
	// The solver takes any number of servers; the (L12, L21) search does not.
	sv5, err := core.NewSolver(fiveServer(dist.FamilyExponential, 1, true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Optimize2Regen(sv5, 2, 2, ObjReliability, Options2{}); err == nil {
		t.Fatal("five-server model should error")
	}
}

// TestOptimize2RegenMemoSharing: evaluating many policies with one solver
// must reuse configurations (far fewer memo states than policies times
// the single-policy footprint).
func TestOptimize2RegenMemoSharing(t *testing.T) {
	m := model2(dist.NewPareto(2.5, 1), dist.NewUniform(0.4, 1.2), 0, 0, 0.6)
	single, err := core.NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	single.Step = 0.1
	single.Horizon = 40
	st, _ := core.NewState(m, []int{4, 2}, core.Policy2(2, 1))
	if _, err := single.MeanTime(st); err != nil {
		t.Fatal(err)
	}
	perPolicy := single.States()

	shared, err := core.NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	shared.Step = 0.1
	shared.Horizon = 40
	if _, err := Optimize2Regen(shared, 4, 2, ObjMeanTime, Options2{}); err != nil {
		t.Fatal(err)
	}
	nPolicies := 5 * 3
	if shared.States() >= perPolicy*nPolicies {
		t.Fatalf("memo sharing ineffective: %d states for %d policies vs %d for one",
			shared.States(), nPolicies, perPolicy)
	}
}
