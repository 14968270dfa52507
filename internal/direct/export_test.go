package direct

import (
	"dtr/dist"
	"dtr/internal/gridfn"
)

// referenceTailExcess is tailExcess as it stood before the chains kept
// one task's law and its mean: a min-of-k law built, and its mean
// integrated twice, at every point. It is the oracle the cached means are
// held to, bit for bit.
func referenceTailExcess(s *Solver, sc *scratch, k int) float64 {
	leg := &sc.srv[k]
	h := s.horizon()
	w := dist.NewMinOfK(s.t.model.Service[k], leg.fac)
	nTasks := leg.own + leg.g
	total := float64(nTasks) * w.Mean()
	var excess float64
	if nTasks > 0 {
		thr := h - (total - w.Mean())
		if leg.z != nil {
			thr -= leg.z.Mean()
		}
		excess += float64(nTasks) * dist.MeanExcess(w, max(thr, 0))
	}
	if leg.z != nil {
		excess += dist.MeanExcess(leg.z, max(h-total, 0))
	}
	return excess
}

// rawMean is Eval's mean at pt without the tail-excess estimate, the
// mean Bounds reports.
func rawMean(s *Solver, pt Point) (float64, error) {
	sc, err := s.exact(pt, true)
	if err != nil {
		return 0, err
	}
	defer s.t.pool.Put(sc)
	return s.meanOf(sc, false), nil
}

// ReferenceMeanTimeRepl is Eval's mean at the pair point (m1, m2, l12,
// l21) under the factors fac, with the tail-excess estimate computed by
// referenceTailExcess.
func ReferenceMeanTimeRepl(s *Solver, m1, m2, l12, l21 int, fac [2]int) (float64, error) {
	sc := s.t.pool.Get().(*scratch)
	defer s.t.pool.Put(sc)
	if err := s.finishFleet(sc, Pair(m1, m2, l12, l21, fac[:]), earliest, true); err != nil {
		return 0, err
	}
	mean := s.meanOf(sc, false)
	var excess float64
	for k := range sc.srv {
		excess += referenceTailExcess(s, sc, k)
	}
	return mean + excess, nil
}

// TransferLattice is transferLattice's lattice: the transfer of a group
// of tasks from src to dst, tabulated through at least its first m
// points.
func (s *Solver) TransferLattice(tasks, src, dst, m int) *gridfn.Lattice {
	_, l := s.transferLattice(tasks, src, dst, m)
	return l
}

// TransferBounds is transferBounds' zBounds of the same transfer.
func (s *Solver) TransferBounds(tasks, src, dst int) (low, mean float64) {
	b := s.t.transferBounds(tasks, src, dst)
	return b.low, b.mean
}
