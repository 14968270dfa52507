package direct

import (
	"fmt"
	"slices"
	"sync"

	"dtr/internal/gridfn"
)

// ScreenEps bounds |Screen.Score(pt) − Eval(pt, m, tm)| at every point a
// screen scores. The two differ only by round-off — the transforms that
// build a finish law on one side and a weight table on the other, the
// finish law's clamped negative mass and tail bookkeeping, and summation
// order — which the screen tests measure at below ScreenEps/1000 on
// every model they run. A sweep that keeps every point whose score lies
// within 2·ScreenEps of the best it has seen, and evaluates exactly only
// those, picks what evaluating every point picks (see Screen).
const ScreenEps = 1e-9

// Screen scores the points of one sweep of a linear metric — MetricQoS
// at one deadline or MetricReliability, under fixed replication factors
// — without a transform. Both metrics are products over the servers of
// E[w_k(F_k)] for a per-sample weight w_k: S_{Y_k}, 1{x ≤ TM}·S_{Y_k}
// or, on a reliable server, CDFAt's step-and-fraction weights at TM.
// With F_k = max(A, Z) + Y_g (the backlog A, the batch's arrival Z, its
// g tasks' service sum Y_g) that expectation is Σ_r P(max(A, Z) = r)·
// G_g(r) for the weight table
//
//	G_g(r) = Σ_{y < N−r} P(Y_g = y)·w(r + y),
//
// one fold of the reversed weights against Y_g, made once per received
// count and reused by every point that sends g tasks to the server (for
// g = 0, G is w itself). A point's score is then the race walk with a
// dot product per server.
//
// The contract is screen, then confirm: Score is within ScreenEps of
// Eval, so a maximizing sweep that confirms with Eval every point whose
// score lies within 2·ScreenEps of the larger of the best score and the
// incumbent, and reduces over those exact values only, returns the
// policy and value bits a sweep evaluating every point returns. Eval
// stays the answer of record; Score is never reported.
//
// A Screen is safe for concurrent use until Release, which returns its
// weight tables to a pool shared by every screen: they live for one
// sweep and are never kept in the Tables.
type Screen struct {
	s    *Solver
	m    Metric
	tm   float64
	fac  []int
	legs []screenLeg
}

// screenLeg is one server's weights and weight tables.
type screenLeg struct {
	// w is the weight through the last lattice point it can be nonzero
	// at; nil when the metric does not read the server (a reliable
	// server's reliability is 1).
	w []float64
	// step is the pooled lattice behind w when w is a reliable server's
	// step at the deadline, whose weight tables are read off the service
	// sum's CDF; nil when w is the tables' survival.
	step *gridfn.Lattice
	// rev is the spectrum of w reversed on the lattice, and g[j] the
	// weight table of a received batch of j tasks, in pooled lattices.
	rev cell[*gridfn.Spectrum]
	g   []cell[*gridfn.Lattice]
}

// tablePool holds the lattices a screen's weights and weight tables are
// made in, of any length: a Get of the wrong length is dropped.
var tablePool sync.Pool

func pooledLattice(dx float64, n int) *gridfn.Lattice {
	if l, _ := tablePool.Get().(*gridfn.Lattice); l != nil && len(l.M) == n {
		l.Dx = dx
		return l
	}
	return gridfn.New(dx, n)
}

// Screen returns the screen of the metric m — MetricQoS at the deadline
// tm or MetricReliability — under the per-server factors fac. The mean
// is not linear in the finish laws and has none. A factor the tables
// lack fails each Score as it fails Eval.
func (s *Solver) Screen(m Metric, tm float64, fac []int) (*Screen, error) {
	switch m {
	case MetricQoS:
		if err := checkDeadline(tm); err != nil {
			return nil, err
		}
	case MetricReliability:
	default:
		return nil, fmt.Errorf("direct: metric %d has no screen: only QoS and reliability are linear in the finish laws", m)
	}
	servers := len(s.t.maxQueue)
	if len(fac) != servers {
		return nil, fmt.Errorf("direct: %d replication factors, model has %d servers", len(fac), servers)
	}
	sn := &Screen{s: s, m: m, tm: tm, fac: slices.Clone(fac), legs: make([]screenLeg, servers)}
	for k := range sn.legs {
		l := &sn.legs[k]
		l.g = make([]cell[*gridfn.Lattice], s.t.maxQueue[k]+1)
		sv := s.t.survival(k)
		switch {
		case m == MetricReliability:
			l.w = sv
		case sv != nil:
			l.w = sv[:s.t.through(tm)]
		default:
			l.step, l.w = s.t.cdfWeights(tm)
		}
	}
	return sn, nil
}

// cdfWeights returns the weights CDFAt(tm) puts on the lattice points, in
// a pooled lattice: 1 through the point at or before tm and the
// interpolation's fraction on the next, or 1 everywhere beyond the last
// point (where CDFAt reads 1 − Tail).
func (t *Tables) cdfWeights(tm float64) (*gridfn.Lattice, []float64) {
	l := pooledLattice(t.dx, t.n)
	pos := tm / t.dx
	if !(pos < float64(t.n-1)) {
		for i := range l.M {
			l.M[i] = 1
		}
		return l, l.M
	}
	i := int(pos)
	w := l.M[:i+2]
	for j := range w {
		w[j] = 1
	}
	w[i+1] = pos - float64(i)
	return l, w
}

// Score returns the screened value of the point pt, within ScreenEps of
// Eval(pt, m, tm): Eval's checks and errors, then per server the race
// walk against the weight table of the batch it receives. It counts as
// one evaluation; a warm point allocates nothing.
func (sn *Screen) Score(pt Point) (float64, error) {
	if err := checkExact(pt); err != nil {
		return 0, err
	}
	s := sn.s
	sc := s.t.pool.Get().(*scratch)
	defer s.t.pool.Put(sc)
	v := 1.0
	err := s.legs(pt, false, func(k, own, g, fac int, z transfer) error {
		if fac != sn.fac[k] {
			return fmt.Errorf("direct: replication factor %d at server %d, screen built for %d", fac, k, sn.fac[k])
		}
		l := &sn.legs[k]
		if l.w == nil {
			return nil
		}
		a := s.prefix(s.chains[fac-1], k, own, sc.work)
		if g == 0 {
			v *= a.Expect(l.w)
		} else {
			v *= a.MaxIndepExpect(z.lat, sn.table(k, g, sc.work))
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	s.noteEval()
	return v, nil
}

// Confirm is Eval(pt, m, tm) for a point Score has counted: the same
// value, bit for bit, not counted again.
func (sn *Screen) Confirm(pt Point) (float64, error) {
	return sn.s.eval(pt, sn.m, sn.tm, false)
}

// table returns (making on first read) server k's weight table for a
// received batch of g ≥ 1 tasks, through the last weighted point. Under
// a step at the deadline it is the g-task service sum's CDF read
// backwards from the step; otherwise the reversed weights folded against
// that sum, read back reversed. w is the caller's fold scratch.
func (sn *Screen) table(k, g int, w *gridfn.Work) []float64 {
	s, l := sn.s, &sn.legs[k]
	tab, _ := l.g[g].get(func() *gridfn.Lattice {
		y := s.prefix(s.chains[sn.fac[k]-1], k, g, w)
		tab := pooledLattice(s.t.dx, s.t.n)
		if l.step != nil {
			stepTable(tab.M[:len(l.w)], y.M, l.w)
			return tab
		}
		rev, _ := l.rev.get(func() *gridfn.Spectrum {
			r := pooledLattice(s.t.dx, s.t.n)
			clear(r.M)
			for i, x := range l.w {
				r.M[s.t.n-1-i] = x
			}
			r.Tail = 0
			spec := r.Spectrum()
			tablePool.Put(r)
			return spec
		})
		rev.Fold(tab, y, w)
		slices.Reverse(tab.M)
		return tab
	})
	return tab.M[:len(l.w)]
}

// stepTable stores in dst the weight table of the law p under the step
// weights w — 1 through point i, then w[i+1] < 1 when w is longer than
// i+1: dst[r] = P(Y ≤ i−r) + w[i+1]·P(Y = i+1−r).
func stepTable(dst, p, w []float64) {
	i := len(w) - 1
	var frac float64
	if w[i] != 1 {
		i, frac = i-1, w[i]
		dst[i+1] = frac * p[0]
	}
	var c float64
	for j := 0; j <= i; j++ {
		c += p[j]
		dst[i-j] = c
		if j+1 < len(p) {
			dst[i-j] += frac * p[j+1]
		}
	}
}

// Release returns the screen's weight tables to the pool. Call it once
// every Score and Confirm has returned; the screen is unusable after.
func (sn *Screen) Release() {
	for k := range sn.legs {
		l := &sn.legs[k]
		for j := range l.g {
			if tab := l.g[j].v; tab != nil {
				tablePool.Put(tab)
			}
		}
		if l.step != nil {
			tablePool.Put(l.step)
		}
	}
	sn.legs = nil
}
