package policy

import "dtr/internal/direct"

// ReferenceOptimize2 is Optimize2's search under the factors fac with
// every candidate evaluated by Eval and nothing screened, outside the
// tables' sweep memory: the candidates and the reduction a screened sweep
// must reproduce bit for bit.
func ReferenceOptimize2(s *direct.Solver, m1, m2 int, obj Objective, opt Options2, fac [2]int) (Result2, error) {
	return optimize2(directEval(s, m1, m2, obj, opt.Deadline, fac), nil, m1, m2, obj, opt)
}

// RaceEnabled reports a build under the race detector.
const RaceEnabled = raceEnabled
