package policy

import (
	"fmt"

	"dtr/internal/core"
)

// Optimize2Regen solves the two-server problems (3)/(4) using the
// age-dependent regeneration solver itself — the computational path the
// paper describes ("the model is utilized to devise task reallocation
// policies...") — rather than the fast convolution shortcut. The search
// is exhaustive over the feasible (L12, L21) lattice.
//
// A single solver instance evaluates every policy, which matters: the
// recursion trees of neighbouring policies overlap heavily (the same
// post-arrival configurations recur), so the shared memo table makes the
// sweep far cheaper than independent solves. Still exponential in the
// workload — use it at small task counts; Optimize2 is the production
// path. The two must agree, which the tests verify.
func Optimize2Regen(sv *core.Solver, m1, m2 int, obj Objective, opt Options2) (Result2, error) {
	if n := sv.Model.N(); n != 2 {
		return Result2{}, fmt.Errorf("policy: the (L12, L21) search needs a two-server model, got %d servers", n)
	}
	if obj == ObjMeanTime && !sv.Model.Reliable() {
		return Result2{}, fmt.Errorf("policy: mean-time objective requires reliable servers")
	}
	// One worker: the solver's memo tables are plain maps.
	opt.Exhaustive, opt.Workers = true, 1
	return optimize2(func(l12, l21 int) (float64, error) {
		st, err := core.NewState(sv.Model, []int{m1, m2}, core.Policy2(l12, l21))
		if err != nil {
			return 0, err
		}
		switch obj {
		case ObjMeanTime:
			return sv.MeanTime(st)
		case ObjQoS:
			return sv.QoS(st, opt.Deadline)
		case ObjReliability:
			return sv.Reliability(st)
		default:
			return 0, fmt.Errorf("policy: unknown objective %v", obj)
		}
	}, nil, m1, m2, obj, opt)
}
