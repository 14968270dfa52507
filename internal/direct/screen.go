package direct

import (
	"fmt"
	"slices"
	"sync"

	"dtr/internal/core"
	"dtr/internal/gridfn"
	"dtr/internal/par"
)

// ScreenEps is the screens' round-off margin. A QoS or reliability
// score is within ScreenEps of Eval; a mean score is at most Eval +
// ScreenEps·Eval (a mean carries the lattice's time unit, so its margin
// is relative). The two differ only by round-off — the transforms that
// build a finish law on one side and a weight table on the other, the
// finish law's clamped negative mass and tail bookkeeping, and summation
// order — which the screen tests measure at below ScreenEps/1000 on
// every model they run. A sweep that confirms the points whose scores
// can still win by that margin, and evaluates exactly only those, picks
// what evaluating every point picks (see Screen).
const ScreenEps = 1e-9

// Screen scores the points of one sweep — of MetricQoS at one deadline,
// MetricReliability or, on a two-server model, MetricMean — under fixed
// replication factors, without a transform.
//
// QoS and reliability are products over the servers of E[w_k(F_k)] for
// a per-sample weight w_k: S_{Y_k}, 1{x ≤ TM}·S_{Y_k} or, on a reliable
// server, CDFAt's step-and-fraction weights at TM. With F_k = max(A, Z)
// + Y_g (the backlog A, the batch's arrival Z, its g tasks' service sum
// Y_g) that expectation is Σ_r P(max(A, Z) = r)·G_g(r) for the weight
// table
//
//	G_g(r) = Σ_{y < N−r} P(Y_g = y)·w(r + y),
//
// one fold of the reversed weights against Y_g, made once per received
// count and reused by every point that sends g tasks to the server (for
// g = 0, G is w itself). A point's score is then the race walk with a
// dot product per server, within ScreenEps of Eval: a maximizing sweep
// that confirms with Eval every point whose score lies within
// 2·ScreenEps of the larger of the best score and the incumbent, and
// reduces over those exact values only, returns the policy and value
// bits a sweep evaluating every point returns.
//
// The mean is not linear in the finish laws, and its score is a lower
// bound instead. Eval's lattice mean is E[min(M, H)] for M = max_k(R_k +
// Y_k), the races R_k and the received sums Y_k with their tails at the
// horizon H. max is convex in (Y₁, Y₂), so by Jensen E[M] ≥ E[max_k(R_k
// + c_k)] for the received sums' lattice means c_k, and the cap removes
// E[(M − H)⁺] ≤ Σ_k E[φ_k(H − R_k)], φ_k(t) = E[(Y_k − t)⁺], which is
// decreasing: at most φ_k(b) = e_k while R_k is at or below H − b, and
// φ_k(0) = c_k beyond. So
//
//	Eval ≥ B = E[max_k(R_k + c_k)] − Σ_k [e_k·P(R_k ≤ H−b) + c_k·P(R_k > H−b)]
//
// (Eval's tail-excess estimate is non-negative and only widens the gap),
// with H − b the lattice point at or below H/2. c_k, e_k and the CDFs of
// the backlog and the transfer at H − b are scalars made once per
// (server, count); B is one walk over the two races (RaceMaxMean) per
// point, which Refine returns.
//
// Score returns an O(1) pre-bound in front of that walk. E max ≥ max E,
// and a race is at least each of its operands, so E[max_k(R_k + c_k)] ≥
// max(μA_k, μZ_k) + c_k for the backlog's lattice mean μA_k and a lower
// bound μZ_k on the transfer lattice's (see Tables.transferBounds); and
// d_k = c_k − (c_k − e_k)·P(R_k ≤ H−b) only grows when the transfer's CDF
// at the split is replaced by a lower bound, giving d'_k. So
//
//	B0 = max_k(max(μA_k, μZ_k) + c_k) − d'₁ − d'₂ − ScreenEps·H ≤ B.
//
// The last term is the floats' allowance: the walk and the lattice means
// each round by well under n·2⁻⁵²·H, and a prefix's mass strays from 1 by
// its folds' residuals (about 1e-15 each), so B0 ≤ B holds in floats
// with a margin of orders of magnitude. B0 reads per-(server, count)
// scalars only, and no transfer lattice. A minimizing sweep walks the
// points from the least pre-bound up while their pre-bounds do not
// exceed the least walked bound (whose order they cannot then change),
// confirms with Eval, from the least bound up, every point whose bound is
// at most ScreenEps relative above the least exact value yet confirmed or
// the incumbent, and reduces over those exact values in scan order:
// every minimizer is among them, so the policy and value bits are again
// a full sweep's.
//
// Eval stays the answer of record; Score is never reported.
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

// screenLeg is one server's weights and weight tables, or its means.
type screenLeg struct {
	// w is the weight through the last lattice point it can be nonzero
	// at; nil when the metric does not read the server (a reliable
	// server's reliability is 1, and the mean has no weights).
	w []float64
	// step is the pooled lattice behind w when w is a reliable server's
	// step at the deadline, whose weight tables are read off the service
	// sum's CDF; nil when w is the tables' survival.
	step *gridfn.Lattice
	// rev is the spectrum of w reversed on the lattice, and g[j] the
	// weight table of a received batch of j tasks, in pooled lattices.
	rev cell[*gridfn.Spectrum]
	g   []cell[*gridfn.Lattice]
	// For the mean, sums[j] is the j-task prefix's sumStat, zLow[j] the
	// CDF at the split of the j-task transfer the server receives and
	// zb[j] that transfer's zBounds.
	sums []cell[sumStat]
	zLow []cell[float64]
	zb   []cell[zBounds]
}

// sumStat is what the mean's bound reads of a service-sum prefix Y:
// its lattice mean c, its excess e = E[(Y − b)⁺] over the split's
// complement b and its CDF low at the split H − b.
type sumStat struct{ c, e, low float64 }

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
// tm, MetricReliability or, on two servers, MetricMean — under the
// per-server factors fac. It refuses a deadline and a mean Eval refuses,
// with Eval's error. A factor the tables lack fails each Score as it
// fails Eval.
func (s *Solver) Screen(m Metric, tm float64, fac []int) (*Screen, error) {
	servers := len(s.t.maxQueue)
	switch m {
	case MetricQoS:
		if err := checkDeadline(tm); err != nil {
			return nil, err
		}
	case MetricReliability:
	case MetricMean:
		if !s.t.model.Reliable() {
			return nil, errUnreliable
		}
		if servers != 2 {
			return nil, fmt.Errorf("direct: the mean's screen bounds two servers, model has %d", servers)
		}
	default:
		return nil, fmt.Errorf("direct: unknown metric %d", m)
	}
	if len(fac) != servers {
		return nil, fmt.Errorf("direct: %d replication factors, model has %d servers", len(fac), servers)
	}
	sn := &Screen{s: s, m: m, tm: tm, fac: slices.Clone(fac), legs: make([]screenLeg, servers)}
	for k := range sn.legs {
		l := &sn.legs[k]
		sv := s.t.survival(k)
		switch {
		case m == MetricMean:
			l.sums = make([]cell[sumStat], s.t.maxQueue[k]+1)
			l.zLow = make([]cell[float64], s.t.maxQueue[k]+1)
			l.zb = make([]cell[zBounds], s.t.maxQueue[k]+1)
			continue
		case m == MetricReliability:
			l.w = sv
		case sv != nil:
			l.w = sv[:s.t.through(tm)]
		default:
			l.step, l.w = s.t.cdfWeights(tm)
		}
		l.g = make([]cell[*gridfn.Lattice], s.t.maxQueue[k]+1)
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

// Score returns the screened value of the point pt — within ScreenEps
// of Eval(pt, m, tm) for QoS and reliability, the pre-bound B0 for the
// mean (see Screen) — after Eval's checks and with its errors: per server
// the race walk against the weight table of the batch it receives, which
// reads the transfer lattice only through the last weighted point, or
// the mean's per-(server, count) scalars, which read none. It counts as
// one evaluation; a warm point allocates nothing.
func (sn *Screen) Score(pt Point) (float64, error) {
	if sn.m == MetricMean {
		return sn.mean(pt, untabulated)
	}
	if err := checkExact(pt); err != nil {
		return 0, err
	}
	s := sn.s
	sc := s.t.pool.Get().(*scratch)
	defer s.t.pool.Put(sc)
	v := 1.0
	err := s.legs(pt, untabulated, func(k, own, g, fac int, _ transfer) error {
		if err := sn.checkFac(k, fac); err != nil {
			return err
		}
		l := &sn.legs[k]
		if l.w == nil {
			return nil
		}
		a := s.prefix(s.chains[fac-1], k, own, sc.work)
		if g == 0 {
			v *= a.Expect(l.w)
		} else {
			_, z := s.transferLattice(g, sender(pt.Policy, k), k, len(l.w))
			v *= a.MaxIndepExpect(z, sn.table(k, g, sc.work))
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	s.noteEval()
	return v, nil
}

// Refine returns the mean's bound B at the point pt (see Screen), the
// one walk over its two races: at least Score's pre-bound, at most Eval,
// with Eval's errors and not counted again. It reads the transfer
// lattices, which FillWalks makes ahead.
func (sn *Screen) Refine(pt Point) (float64, error) {
	if sn.m != MetricMean {
		return 0, fmt.Errorf("direct: only the mean's screen refines, metric %d", sn.m)
	}
	return sn.mean(pt, earliest)
}

// mean returns the mean's pre-bound B0 at pt, counting the point, when
// arrive is untabulated, and its walked bound B otherwise.
func (sn *Screen) mean(pt Point, arrive arrival) (float64, error) {
	if err := checkExact(pt); err != nil {
		return 0, err
	}
	s := sn.s
	sc := s.t.pool.Get().(*scratch)
	defer s.t.pool.Put(sc)
	var races [2]raceLeg
	var pre [2]preLeg
	err := s.legs(pt, arrive, func(k, own, g, fac int, z transfer) error {
		if err := sn.checkFac(k, fac); err != nil {
			return err
		}
		if arrive == untabulated {
			pre[k] = sn.pre(k, own, g, sc.work)
		} else {
			races[k] = sn.race(k, own, g, z, sc.work)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if arrive != untabulated {
		return meanBound(&races), nil
	}
	s.noteEval()
	return max(pre[0].x, pre[1].x) - pre[0].d - pre[1].d - ScreenEps*s.horizon(), nil
}

// sender returns the server that sends server k its group under the
// policy p, which converges none.
func sender(p core.Policy, k int) int {
	for i, row := range p {
		if row[k] > 0 {
			return i
		}
	}
	return -1
}

// checkFac refuses server k's replication factor fac unless the screen
// was built for it.
func (sn *Screen) checkFac(k, fac int) error {
	if fac != sn.fac[k] {
		return fmt.Errorf("direct: replication factor %d at server %d, screen built for %d", fac, k, sn.fac[k])
	}
	return nil
}

// raceLeg is one server's share of the mean's bound: its race max(a, z),
// the received sum's lattice mean c and d, what the cap at the horizon
// can remove from this server's finish.
type raceLeg struct {
	a, z *gridfn.Lattice
	c, d float64
}

// race returns server k's raceLeg with `own` tasks of its own and a batch
// of g arriving at z (with none, the race is the backlog alone: z is the
// zero-task prefix, a point mass at 0). w is the caller's fold scratch.
func (sn *Screen) race(k, own, g int, z transfer, w *gridfn.Work) raceLeg {
	c := sn.s.chains[sn.fac[k]-1]
	r := raceLeg{a: sn.s.prefix(c, k, own, w), z: c.pre[k][0]}
	if g == 0 {
		return r
	}
	y, low := sn.sum(k, g, w), sn.sum(k, own, w).low*sn.transferLow(k, g, z.lat)
	r.z, r.c, r.d = z.lat, y.c, y.e*low+y.c*(1-low)
	return r
}

// preLeg is one server's share of the mean's pre-bound: x = max(μA, μZ)
// + c and d' (see Screen).
type preLeg struct{ x, d float64 }

// pre returns server k's preLeg with `own` tasks of its own and a batch
// of g: race's scalars, with the transfer's read off its zBounds.
func (sn *Screen) pre(k, own, g int, w *gridfn.Work) preLeg {
	a := sn.sum(k, own, w)
	if g == 0 {
		return preLeg{x: a.c}
	}
	y, z := sn.sum(k, g, w), sn.bounds(k, g)
	low := a.low * z.low
	return preLeg{x: max(a.c, z.mean) + y.c, d: y.e*low + y.c*(1-low)}
}

// meanBound is B = E[max(R₁ + c₁, R₂ + c₂)] − d₁ − d₂ (see Screen), the
// walk run with the larger mean shifted.
func meanBound(r *[2]raceLeg) float64 {
	lead, trail := &r[0], &r[1]
	if lead.c < trail.c {
		lead, trail = trail, lead
	}
	return trail.c + lead.a.RaceMaxMean(lead.z, trail.a, trail.z, lead.c-trail.c) - r[0].d - r[1].d
}

// split is the lattice point H − b at or below half the horizon where the
// mean's bound splits each race (see Screen).
func (t *Tables) split() int { return (t.n - 1) / 2 }

// sum returns (making on first read) the sumStat of server k's j-task
// prefix under the screen's factor.
func (sn *Screen) sum(k, j int, w *gridfn.Work) sumStat {
	st, _ := sn.legs[k].sums[j].get(func() sumStat {
		y := sn.s.prefix(sn.s.chains[sn.fac[k]-1], k, j, w)
		sp := sn.s.t.split()
		b := len(y.M) - 1 - sp
		var e float64
		for i, m := range y.M[b+1:] {
			e += float64(i+1) * m
		}
		return sumStat{c: y.Mean(), e: (e + y.Tail*float64(sp)) * y.Dx, low: massThrough(y, sp)}
	})
	return st
}

// transferLow returns (making on first read) the CDF at the split of the
// g-task transfer z server k receives; on two servers it has one sender.
func (sn *Screen) transferLow(k, g int, z *gridfn.Lattice) float64 {
	low, _ := sn.legs[k].zLow[g].get(func() float64 { return massThrough(z, sn.s.t.split()) })
	return low
}

// bounds returns (copying on first read) the zBounds of the g-task
// transfer server k receives.
func (sn *Screen) bounds(k, g int) zBounds {
	b, _ := sn.legs[k].zb[g].get(func() zBounds { return sn.s.t.transferBounds(g, 1-k, k) })
	return b
}

// massThrough is l's mass at the points 0..i, summed in index order.
func massThrough(l *gridfn.Lattice, i int) float64 {
	var c float64
	for _, m := range l.M[:i+1] {
		c += m
	}
	return c
}

// FillPairs makes ahead, over up to workers goroutines, what scoring the
// two-server points (L12, L21) of the workload (m1, m2) reads, so that no
// Score waits on another's fill: first each server's service-sum prefixes
// (one job per server, as the tables fold a server's under one lock)
// beside the distinct transfer laws — their lattices through the last
// weighted point or, for the mean, their zBounds — then the received
// batches' weight tables or, for the mean, the prefix statistics of
// every count a point holds or receives. It makes nothing
// a serial scan of the points would not, and skips the points whose
// Score fails.
func (sn *Screen) FillPairs(m1, m2 int, pairs [][2]int, workers int) {
	s := sn.s
	if len(sn.legs) != 2 {
		return
	}
	mean := sn.m == MetricMean
	var top [2]int
	var recv, held [2][]bool
	for k := range recv {
		recv[k] = make([]bool, s.t.maxQueue[k]+1)
		held[k] = make([]bool, s.t.maxQueue[k]+1)
	}
	for _, p := range pairs {
		if p[0] < 0 || p[1] < 0 || p[0] > m1 || p[1] > m2 {
			continue
		}
		own, g := [2]int{m1 - p[0], m2 - p[1]}, [2]int{p[1], p[0]}
		for k := range 2 {
			if own[k] < len(recv[k]) && g[k] < len(recv[k]) {
				top[k] = max(top[k], own[k], g[k])
				recv[k][g[k]], held[k][own[k]] = true, true
			}
		}
	}
	// reads reports whether scoring reads server k's prefixes.
	reads := func(k int) bool { return mean || sn.legs[k].w != nil }
	fills := [][2]int{{0, -1}, {1, -1}} // (server, count); count −1 is the prefixes
	var tables [][2]int
	for k := range 2 {
		for g := range recv[k] {
			batch := g > 0 && recv[k][g]
			if batch {
				fills = append(fills, [2]int{k, g})
			}
			if mean && (batch || held[k][g]) || !mean && batch && reads(k) {
				tables = append(tables, [2]int{k, g})
			}
		}
	}
	do := func(jobs [][2]int, job func(k, g int, w *gridfn.Work)) {
		_ = par.ForEach(workers, len(jobs), func(_, i int) error {
			sc := s.t.pool.Get().(*scratch)
			defer s.t.pool.Put(sc)
			job(jobs[i][0], jobs[i][1], sc.work)
			return nil
		})
	}
	do(fills, func(k, g int, w *gridfn.Work) {
		switch {
		case g < 0:
			if reads(k) {
				s.prefix(s.chains[sn.fac[k]-1], k, top[k], w)
			}
		case mean:
			sn.bounds(k, g)
		case sn.legs[k].w != nil:
			s.transferLattice(g, 1-k, k, len(sn.legs[k].w))
		}
	})
	do(tables, func(k, g int, w *gridfn.Work) {
		if mean {
			sn.sum(k, g, w)
		} else {
			sn.table(k, g, w)
		}
	})
}

// FillWalks makes ahead, over up to workers goroutines, the transfer
// lattices, and their CDFs at the split, that Refine reads at two-server
// points (L12, L21) a mean screen has scored: one job per distinct law.
func (sn *Screen) FillWalks(pairs [][2]int, workers int) {
	s := sn.s
	if len(sn.legs) != 2 || sn.m != MetricMean {
		return
	}
	var jobs [][2]int
	for _, p := range pairs {
		for k, g := range [2]int{p[1], p[0]} {
			if job := [2]int{k, g}; g > 0 && g <= s.t.maxQueue[k] && !slices.Contains(jobs, job) {
				jobs = append(jobs, job)
			}
		}
	}
	_ = par.ForEach(workers, len(jobs), func(_, i int) error {
		k, g := jobs[i][0], jobs[i][1]
		sn.transferLow(k, g, s.transferOf(g, 1-k, k).lat)
		return nil
	})
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
