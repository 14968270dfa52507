package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	"dtr/internal/direct"
	"dtr/internal/obs"
	"dtr/internal/policy"
	"dtr/modelspec"
)

// labUnit is one exhaustive sweep: the paper's own computation as a
// dtrlab / dtrplan user runs it.
type labUnit struct {
	spec modelspec.SystemSpec
	body []byte
}

func setupLabSweep(seed uint64, p profile) (*instance, error) {
	anchors, err := loadAnchors()
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	r := rand.New(rand.NewPCG(seed, 0x1ab5))
	units := make([]labUnit, p.labUnits)
	bodies := make([][]byte, len(units))
	for i := range units {
		spec := severeSpec()
		spec.Servers[0].Queue, spec.Servers[1].Queue = p.labTasks[0], p.labTasks[1]
		if i > 0 { // unit 0 is the paper's model itself: the anchored optimum
			spec = perturb(spec, r, 0.05)
		}
		units[i].spec = spec
		if units[i].body, err = json.Marshal(spec); err != nil {
			return nil, err
		}
		bodies[i] = units[i].body
	}
	// Warm-up: one solver build and a default coarse-to-fine search on a
	// model outside the list.
	warm := perturb(units[0].spec, rand.New(rand.NewPCG(seed, 0x77a2)), 0.05)
	if _, _, err := labSolve(nil, nil, 0, warm, p, false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	m1, m2 := p.labTasks[0], p.labTasks[1]
	anchorID := fmt.Sprintf("lab_sweep/%d+%d/%d", m1, m2, p.labGrid)
	return &instance{
		units:    len(units),
		inputSHA: hashBodies(bodies...),
		counts:   map[string]int{"sweeps": len(units), "lattice_points": (m1 + 1) * (m2 + 1)},
		reg:      reg,
		close:    func() {},
		run: func(i int, rec *recorder) {
			root := rec.tr.start("op.lab_sweep", nil, i)
			res, d, err := labSolve(rec.tr, root, i, units[i].spec, p, true)
			root.end()
			if err == nil && res.Evaluations != (m1+1)*(m2+1) {
				err = fmt.Errorf("exhaustive sweep evaluated %d points, want %d", res.Evaluations, (m1+1)*(m2+1))
			}
			if err == nil && i == 0 {
				err = anchors.check(anchorID, [][]int{{0, res.L12}, {res.L21, 0}}, res.Value)
			}
			rec.op(d, err)
		},
	}, nil
}

// labSolve builds the solver for spec and searches the policy lattice,
// returning the optimum and the time the two calls took. The optimum is
// re-evaluated on the same solver and must reproduce its value.
func labSolve(tr *tracer, root *spanRef, opID int, spec modelspec.SystemSpec, p profile, exhaustive bool) (policy.Result2, time.Duration, error) {
	model, initial, err := spec.Build()
	if err != nil {
		return policy.Result2{}, 0, err
	}
	m1, m2 := initial[0], initial[1]
	t0 := time.Now()
	sp := tr.start("direct.NewSolver", root, opID)
	sv, err := direct.NewSolver(model, direct.Config{N: p.labGrid, Horizon: p.labHorizon, MaxQueue: [2]int{m1 + m2, m1 + m2}})
	sp.end()
	if err != nil {
		return policy.Result2{}, 0, err
	}
	sp = tr.start("policy.Optimize2", root, opID)
	res, err := policy.Optimize2(sv, m1, m2, policy.ObjMeanTime, policy.Options2{Exhaustive: exhaustive})
	sp.end()
	d := time.Since(t0)
	if err != nil {
		return res, d, err
	}
	again, err := sv.MeanTime(m1, m2, res.L12, res.L21)
	if err != nil {
		return res, d, err
	}
	if relDiff(again, res.Value) > 1e-12 {
		return res, d, fmt.Errorf("optimum (%d, %d) re-evaluates to %.12g, search reported %.12g", res.L12, res.L21, again, res.Value)
	}
	return res, d, nil
}
