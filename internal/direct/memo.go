package direct

// swept is a sweep's outcome: the caller's answer or error and the
// solve-phase accumulators of the view that computed it.
type swept struct {
	val any
	acc accum
	err error
}

// sweptBytes is what Tables.Bytes charges per remembered sweep: the map
// slot, the boxed key and answer, and the accumulators.
const sweptBytes = 256

// accum is a snapshot of a view's solve-phase accumulators.
type accum struct {
	folds, evals            uint64
	residual, negMass, tail float64
}

func (s *Solver) accum() accum {
	return accum{s.folds.Load(), s.evalCount.Load(), s.residualMax.load(), s.negMassMax.load(), s.tailMax.load()}
}

// merge folds a's accumulators into the view's with the order-independent
// reductions (sums and maxima), as if the view had made those folds and
// evaluations itself.
func (s *Solver) merge(a accum) {
	s.folds.Add(a.folds)
	s.evalCount.Add(a.evals)
	s.residualMax.update(a.residual)
	s.negMassMax.update(a.negMass)
	s.tailMax.update(a.tail)
}

// Sweep returns run's answer for key — a comparable value naming a whole
// policy sweep under the per-server factors fac — computing it at most
// once per key on the view's tables. A factor outside the view's range
// is not looked up: run gets the view itself, whose factor check fails
// it, so no entry of a wider view answers a narrower one. Otherwise a
// miss runs the sweep on a fresh view of the same chains and remembers
// its answer with that view's accumulators; hit or miss, the accumulators
// are merged into this view, so its Diagnostics are those of a view that
// ran the sweep itself. run must be a pure function of the view it is
// given. Callers of a key being swept wait for that sweep and read it
// back as a hit. Errors are not remembered: the callers already waiting
// share one, and the next caller sweeps again.
func (s *Solver) Sweep(key any, fac [2]int, run func(*Solver) (any, error)) (val any, hit bool, err error) {
	for _, f := range fac {
		if f < 1 || f > len(s.chains) {
			val, err = run(s)
			return val, false, err
		}
	}
	t := s.t
	e, filled := cellOf(&t.mu, t.sweeps, key).get(func() swept {
		fresh := &Solver{t: t, chains: s.chains, span: s.span}
		val, err := run(fresh)
		if err != nil {
			t.mu.Lock()
			delete(t.sweeps, key)
			t.mu.Unlock()
		} else {
			t.lazyBytes.Add(sweptBytes)
		}
		return swept{val, fresh.accum(), err}
	})
	s.merge(e.acc)
	if e.err != nil {
		return nil, false, e.err
	}
	return e.val, !filled, nil
}
