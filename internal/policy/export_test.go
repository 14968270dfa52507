package policy

import (
	"cmp"
	"math"
	"slices"

	"dtr/internal/direct"
	"dtr/internal/par"
)

// ReferenceOptimize2 is Optimize2's search under the factors fac with
// every candidate evaluated by Eval and nothing screened, outside the
// tables' sweep memory: the candidates and the reduction a screened sweep
// must reproduce bit for bit.
func ReferenceOptimize2(s *direct.Solver, m1, m2 int, obj Objective, opt Options2, fac [2]int) (Result2, error) {
	return optimize2(directEval(s, m1, m2, obj, opt.Deadline, fac), nil, m1, m2, obj, opt)
}

// RaceEnabled reports a build under the race detector.
const RaceEnabled = raceEnabled

// ConfirmChunks scores every point of the (m1, m2) lattice through the
// mean screen of s under the factors fac and confirms them, from no
// incumbent, over workers goroutines: by confirmLeast or, when eager is
// set, by referenceConfirmLeast. It returns the incumbent, the chunks
// confirmed in order and the bounds walked.
func ConfirmChunks(s *direct.Solver, m1, m2 int, fac [2]int, workers int, eager bool) (best Result2, chunks [][][2]int, walks int, err error) {
	sn, err := s.Screen(direct.MetricMean, 0, fac[:])
	if err != nil {
		return Result2{}, nil, 0, err
	}
	defer sn.Release()
	sw := &sweep2{
		scr: directScreen(sn, m1, m2, fac, true), m1: m1, m2: m2, obj: ObjMeanTime, workers: par.Workers(workers),
		best:      Result2{Value: ObjMeanTime.worst(), L12: -1, L21: -1},
		confirmed: func(pts [][2]int) { chunks = append(chunks, slices.Clone(pts)) },
	}
	var cand [][2]int
	for l12 := 0; l12 <= m1; l12++ {
		for l21 := 0; l21 <= m2; l21++ {
			cand = append(cand, [2]int{l12, l21})
		}
	}
	pre := make([]float64, len(cand))
	sw.scr.fill(cand, sw.workers)
	if err := sw.each(cand, pre, sw.scr.score); err != nil {
		return Result2{}, nil, 0, err
	}
	if eager {
		err = referenceConfirmLeast(sw, cand, pre)
	} else {
		err = sw.confirmLeast(cand, pre)
	}
	return sw.best, chunks, sw.walks, err
}

// referenceConfirmLeast is confirmLeast as it stood before the walks
// were lazy: every candidate walked, sorted by (bound, index) and
// confirmed confirmChunk at a time while the next bound is at most
// direct.ScreenEps relative above the least exact value so far.
func referenceConfirmLeast(sw *sweep2, cand [][2]int, pre []float64) error {
	bound := make([]float64, len(cand))
	sw.scr.fillWalk(cand, sw.workers)
	if err := sw.each(cand, bound, sw.scr.walk); err != nil {
		return err
	}
	sw.walks += len(cand)
	order := make([]int, len(cand))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Or(cmp.Compare(bound[a], bound[b]), a-b) })
	ref, n := sw.best.Value, 0
	var pts [confirmChunk][2]int
	var vals [confirmChunk]float64
	for n < len(order) {
		thr := ref + direct.ScreenEps*math.Abs(ref)
		hi := n
		for hi < len(order) && hi-n < confirmChunk && !(bound[order[hi]] > thr) {
			hi++
		}
		if hi == n {
			break
		}
		chunk := order[n:hi]
		for j, i := range chunk {
			pts[j] = cand[i]
		}
		if err := sw.each(pts[:len(chunk)], vals[:len(chunk)], sw.scr.confirm); err != nil {
			return err
		}
		sw.confirmed(pts[:len(chunk)])
		for j, i := range chunk {
			bound[i] = vals[j]
			if vals[j] < ref {
				ref = vals[j]
			}
		}
		n = hi
	}
	slices.Sort(order[:n])
	var keep [][2]int
	for p, i := range order[:n] {
		keep = append(keep, cand[i])
		bound[p] = bound[i]
	}
	sw.reduce(keep, bound[:n])
	return nil
}
