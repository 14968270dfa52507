package direct_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/direct"
	"dtr/internal/exper"
	"dtr/internal/gridfn"
)

// perPoint hides a law's batch CDF, so the tables read it point by
// point: the scalar path the lanes are held to.
type perPoint struct{ dist.Dist }

// TestTransferLawsBitIdenticalToScalar holds every transfer lattice and
// zBounds of the results/ models (the canonical Pareto models at both
// delays, which Tables I and II and the lab_sweep model share, and the
// testbed), and of lab_sweep's model with its transfer means perturbed
// as the benchmark perturbs them, to the per-point path's bits at grids
// 2048 and 4096, tabulated whole and in random steps. Where the host
// has the lane kernel, a Pareto law's points go through it.
func TestTransferLawsBitIdenticalToScalar(t *testing.T) {
	severe := exper.SevereDelay.TransferPerTask()
	perturbed := func(f dist.Family, scale float64) *core.Model {
		m := exper.CanonicalModel(f, exper.SevereDelay, true)
		m.Transfer = func(tasks, _, _ int) dist.Dist { return f.WithMean(scale * severe * float64(max(tasks, 1))) }
		return m
	}
	type model struct {
		name    string
		m       *core.Model
		horizon float64
		tasks   int
	}
	var models []model
	for _, f := range []dist.Family{dist.FamilyPareto1, dist.FamilyPareto2} {
		for _, d := range []exper.Delay{exper.LowDelay, exper.SevereDelay} {
			models = append(models, model{f.String() + "/" + d.String(), exper.CanonicalModel(f, d, true), d.Horizon(), 200})
		}
		models = append(models,
			model{f.String() + "/table2", exper.Table2Model(f, true), exper.HorizonSevere, 200},
			model{f.String() + "/bench-5%", perturbed(f, 0.95), exper.HorizonSevere, 200},
			model{f.String() + "/bench+5%", perturbed(f, 1.05), exper.HorizonSevere, 200})
	}
	models = append(models, model{"testbed", exper.TestbedModel(true), 1200, exper.TBM1 + exper.TBM2})

	r := rand.New(rand.NewPCG(5, 8))
	for _, c := range models {
		for _, n := range []int{2048, 4096} {
			scalar := *c.m
			scalar.Transfer = func(tasks, src, dst int) dist.Dist { return perPoint{c.m.Transfer(tasks, src, dst)} }
			solver := func(m *core.Model) *direct.Solver {
				s, err := direct.NewSolver(m, direct.Config{N: n, Horizon: c.horizon, MaxQueue: [2]int{c.tasks, c.tasks}})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			whole, steps, ref := solver(c.m), solver(c.m), solver(&scalar)
			for g := 1; g <= c.tasks; g++ {
				want := ref.TransferLattice(g, 0, 1, n)
				sameLattice(t, c.name, n, g, "whole", whole.TransferLattice(g, 0, 1, n), want)
				for m := 0; m < n; {
					m = min(n, m+1+r.IntN(n/3))
					steps.TransferLattice(g, 0, 1, m)
				}
				sameLattice(t, c.name, n, g, "in steps", steps.TransferLattice(g, 0, 1, n), want)
				low, mean := whole.TransferBounds(g, 0, 1)
				wlow, wmean := ref.TransferBounds(g, 0, 1)
				if math.Float64bits(low) != math.Float64bits(wlow) || math.Float64bits(mean) != math.Float64bits(wmean) {
					t.Fatalf("%s, grid %d, %d tasks: zBounds (%v, %v), per point (%v, %v)", c.name, n, g, low, mean, wlow, wmean)
				}
			}
		}
	}
}

func sameLattice(t *testing.T, name string, n, g int, how string, got, want *gridfn.Lattice) {
	t.Helper()
	for i := range want.M {
		if math.Float64bits(got.M[i]) != math.Float64bits(want.M[i]) {
			t.Fatalf("%s, grid %d, %d tasks, tabulated %s: mass %d is %v, per point %v", name, n, g, how, i, got.M[i], want.M[i])
		}
	}
	if math.Float64bits(got.Tail) != math.Float64bits(want.Tail) {
		t.Fatalf("%s, grid %d, %d tasks, tabulated %s: tail %v, per point %v", name, n, g, how, got.Tail, want.Tail)
	}
}
