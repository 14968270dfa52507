package direct

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/gridfn"
	"dtr/internal/obs"
)

// Tables is what a model owns of the canonical solver: the lattice
// geometry and, per replication factor, the k-fold service-sum prefix
// chains of every server with their lazily filled spectra, the
// transfer-time lattices, the evaluation scratch pool and the lazily
// built half-resolution shadow. Everything in it is a pure function of
// (model, geometry, queue bound), is never mutated once published and
// only ever grows, along two axes — factor chains are appended, and a
// chain is folded forward to the longest queue anyone has read (see
// prefix) — besides the cache cells filled and the sweeps remembered, so
// any number of per-request Solver views (see View) may share one Tables
// across goroutines, and what a view computes does not depend on which
// other views exist or what they evaluated first.
//
// Every lazy value (spectrum, transfer law, sweep, one task's mean) fills
// once, in a write-once cell whose other readers wait; a transfer
// lattice fills in steps under its own lock, as far as its readers need.
// Fills nest only downward — a sweep fills transfer laws and spectra, a
// spectrum folds prefixes under a fold lock, nothing under a lock reads a
// cell — so no fill waits on a cell of its own kind and waiting cannot
// deadlock.
type Tables struct {
	model *core.Model
	dx    float64
	n     int
	// maxQueue[k] bounds server k's prefix chain.
	maxQueue []int

	// build serializes the start of factor chains, so each is started
	// once; a chain's per-server fold locks see each prefix folded once.
	build sync.Mutex

	// mu guards the chains slice header and the key→cell maps zCache and
	// sweeps; the cells fill outside it.
	mu     sync.RWMutex
	chains []*chain // chains[f-1] holds replication factor f
	zCache map[[3]int]*zEntry
	// sweeps remembers whole policy sweeps (see Solver.Sweep).
	sweeps map[any]*cell[swept]
	// surv[k] is server k's failure-law survival on the lattice (see
	// survival).
	surv []cell[[]float64]
	// lazyBytes is the footprint of the spectra, transfer lattices and
	// remembered sweeps filled so far (see Bytes).
	lazyBytes atomic.Int64

	// pool holds *scratch, one drawn per evaluation. It is a pointer, and
	// its New must not capture the tables: the runtime keeps every used
	// Pool reachable for two collections, and an embedded one would pin
	// the tables with it.
	pool *sync.Pool

	// Half-resolution shadow for grid-error probes, built on the first
	// ProbeGridError of any view.
	shadowOnce sync.Once
	shadow     atomic.Pointer[Tables]
	shadowErr  error
}

// chain is one replication factor's tables: pre[k][j] is the law of the
// sum of j i.i.d. effective service times at server k — each task's law
// is the min-of-f order statistic of the base service law
// (cancel-on-first-complete replication) — and spec[k][j] the cell of its
// spectrum. Factor 1 is the base law, so its chain is exactly the
// pre-replication tables.
//
// pre[k] has a slot per queue length up to the bound, of which the first
// built[k] are filled: slot j is folded from slot j−1 and base[k], the
// spectrum of one task's law, the first time anyone reads it or a longer
// one (Solver.prefix). Slots are written once, before built[k] passes
// them, so readers index below built[k] without a lock. fold[k]
// serializes server k's folds and meter[k] audits those made so far, so
// the servers' chains fold concurrently. eff[k] is one task's law itself
// and mean[k] its mean, integrated on first use: above factor 1 it is a
// numerical integral that the tail-excess estimate would otherwise repeat
// at every point.
type chain struct {
	pre   [][]*gridfn.Lattice
	built []atomic.Int32
	base  []*gridfn.Spectrum
	spec  [][]cell[*gridfn.Spectrum]
	eff   []dist.Dist
	mean  []func() float64
	fold  []sync.Mutex
	meter []gridfn.Meter
}

// Config sizes the solver's lattice.
type Config struct {
	// Dx is the lattice step; 0 derives it from Horizon/N.
	Dx float64
	// N is the number of lattice points (power of two recommended);
	// 0 defaults to 8192.
	N int
	// Horizon is the time span covered; 0 derives a horizon from the
	// model means: 2.5× the worst-case expected completion plus transfer.
	Horizon float64
	// MaxQueue[k] bounds server k's prefix chain and sets the auto
	// horizon; it must be at least the largest queue the sweep will
	// produce at server k (own tasks plus the largest incoming batch).
	// Folds happen on first read, so a generous bound costs nothing. A
	// model of any other size than two takes the larger entry as every
	// server's bound.
	MaxQueue [2]int
	// Span, when set, attaches solver-phase sub-spans to a request-scoped
	// trace: a "solver_build" child when a factor chain is started, and
	// "prefix_fold" / "fft" / "transfer_law" children for lazy fills.
	// Purely observational — results are bit-identical with or without it.
	Span *obs.Span
	// MaxFactor requests prefix tables for replication factors
	// 1..MaxFactor per server, enabling the *Repl metric variants (the
	// joint reallocation+replication search evaluates them). 0 or 1
	// builds only the base tables; the model's own Repl factors raise
	// the effective value so the default-factor methods always have
	// their tables.
	MaxFactor int
}

// NewTables validates a model of any number of servers, fixes the
// lattice geometry and starts the service-sum chains for replication
// factors up to cfg.MaxFactor (at least the model's own). cfg.Span
// receives the "solver_build" span.
func NewTables(m *core.Model, cfg Config) (*Tables, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	maxG := max(cfg.MaxQueue[0], cfg.MaxQueue[1])
	if maxG <= 0 {
		return nil, fmt.Errorf("direct: Config.MaxQueue must bound the sweep queue lengths")
	}
	servers := m.N()
	maxQueue := make([]int, servers)
	for k := range maxQueue {
		maxQueue[k] = maxG
	}
	if servers == 2 {
		copy(maxQueue, cfg.MaxQueue[:])
	}
	n := cfg.N
	if n == 0 {
		n = 8192
	}
	dx := cfg.Dx
	if dx == 0 {
		hor := cfg.Horizon
		if hor == 0 {
			worst := 0.0
			for k, d := range m.Service {
				worst = max(worst, float64(maxQueue[k])*d.Mean())
			}
			hor = 2.5 * (worst + m.Transfer(maxG, 0, min(1, servers-1)).Mean())
		}
		dx = hor / float64(n-1)
	}
	t := &Tables{
		model:    m,
		dx:       dx,
		n:        n,
		maxQueue: maxQueue,
		zCache:   make(map[[3]int]*zEntry),
		sweeps:   make(map[any]*cell[swept]),
		surv:     make([]cell[[]float64], servers),
	}
	t.pool = &sync.Pool{New: func() any { return newScratch(servers, dx, n) }}
	t.extend(t.factorsFor(cfg.MaxFactor), cfg.Span)
	return t, nil
}

// factorsFor is the number of factor chains a caller asking for
// maxFactor reads: at least the base chain and the model's defaults
// (its Repl entries, which the factor-less metric methods evaluate at).
func (t *Tables) factorsFor(maxFactor int) int {
	maxFactor = max(maxFactor, 1)
	for k := range t.maxQueue {
		maxFactor = max(maxFactor, t.model.ReplFactor(k))
	}
	return maxFactor
}

// factors returns the largest replication factor the tables hold
// chains for.
func (t *Tables) factors() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.chains)
}

// extend starts the factor chains up to maxFac that the tables lack and
// returns how many it added: each gets its per-task spectrum and the
// zero-task prefix, the folds follow on first read. A chain depends on
// nothing but the model, the geometry and its own (server, factor), so
// chains added later hold the same lattices, bit for bit, as a one-shot
// build. span receives a "solver_build" child, only when something is
// built.
func (t *Tables) extend(maxFac int, span *obs.Span) int {
	if t.factors() >= maxFac {
		return 0 // nothing to build: do not queue behind someone else's extension
	}
	t.build.Lock()
	defer t.build.Unlock()
	have := t.factors()
	if have >= maxFac {
		return 0
	}
	servers := len(t.maxQueue)
	sp := span.Child("solver_build", "grid_n", t.n, "servers", servers, "max_queue", slices.Max(t.maxQueue))
	defer sp.End()
	fresh := make([]*chain, maxFac-have)
	for i := range fresh {
		c := &chain{
			pre:   make([][]*gridfn.Lattice, servers),
			built: make([]atomic.Int32, servers),
			base:  make([]*gridfn.Spectrum, servers),
			spec:  make([][]cell[*gridfn.Spectrum], servers),
			eff:   make([]dist.Dist, servers),
			mean:  make([]func() float64, servers),
			fold:  make([]sync.Mutex, servers),
			meter: make([]gridfn.Meter, servers),
		}
		for k := range c.pre {
			eff := dist.NewMinOfK(t.model.Service[k], have+1+i)
			c.eff[k], c.mean[k] = eff, sync.OnceValue(eff.Mean)
			c.base[k] = gridfn.FromCDF(eff.CDF, t.dx, t.n).Spectrum()
			c.pre[k] = make([]*gridfn.Lattice, t.maxQueue[k]+1)
			c.pre[k][0] = gridfn.PointMass(0, t.dx, t.n)
			c.built[k].Store(1)
			c.spec[k] = make([]cell[*gridfn.Spectrum], len(c.pre[k]))
			solverBuilds.Inc()
		}
		fresh[i] = c
	}
	t.mu.Lock()
	t.chains = append(t.chains, fresh...)
	t.mu.Unlock()
	return maxFac - have
}

// prefix returns pre[k][j] of the view's chain c, first folding the chain
// forward to j if nobody has read that far: the same fold sequence a
// one-shot build to the queue bound runs, stopped early, so every slot
// holds the same lattice whoever asked for it and in whatever order. w
// is the caller's fold scratch. The folds show in the view's trace as a
// "prefix_fold" span and in the server's meter.
func (s *Solver) prefix(c *chain, k, j int, w *gridfn.Work) *gridfn.Lattice {
	if j >= int(c.built[k].Load()) {
		t := s.t
		c.fold[k].Lock()
		if have := int(c.built[k].Load()); j >= have {
			sp := s.span.Child("prefix_fold", "server", k, "from", have, "to", j)
			for i := have; i <= j; i++ {
				l := gridfn.New(t.dx, t.n)
				c.meter[k].Observe(c.base[k].Fold(l, c.pre[k][i-1], w))
				c.pre[k][i] = l
				c.built[k].Store(int32(i + 1))
			}
			sp.End()
		}
		c.fold[k].Unlock()
	}
	return c.pre[k][j]
}

// mergeMeter folds one chain's construction audit into dst with the
// order-independent reductions only (count and maxima), so the merged
// audit of factors 1..f is the same whether the chains were built at
// once, one extension at a time, or by another request.
func mergeMeter(dst *gridfn.Meter, m gridfn.Meter) {
	dst.Folds += m.Folds
	dst.MaxResidual = max(dst.MaxResidual, m.MaxResidual)
	dst.MaxNegMass = max(dst.MaxNegMass, m.MaxNegMass)
}

// View returns a per-request solver over the tables for replication
// factors 1..maxFactor (at least the model's own), first building the
// factor chains the tables lack; built is how many this call added. The
// view's Diagnostics, factor checks and solve-phase accumulators cover
// exactly what a solver freshly built with Config.MaxFactor = maxFactor
// would report, whatever else the tables hold. span receives the
// "solver_build" span of an extension and the view's lazy cache-fill
// spans.
func (t *Tables) View(maxFactor int, span *obs.Span) (v *Solver, built int) {
	maxFac := t.factorsFor(maxFactor)
	built = t.extend(maxFac, span)
	t.mu.RLock()
	chains := t.chains[:maxFac:maxFac]
	t.mu.RUnlock()
	return &Solver{t: t, chains: chains, span: span}, built
}

// slotBytes is one queue slot of a chain: its prefix pointer and its
// spectrum cell.
const slotBytes = int64(unsafe.Sizeof((*gridfn.Lattice)(nil)) + unsafe.Sizeof(cell[*gridfn.Spectrum]{}))

// Bytes is the tables' accounted memory footprint: per chain the
// per-task spectrum, the slot arrays and the prefix lattices folded so
// far; the spectra, transfer lattices, survival tables and remembered
// sweeps filled so far; and the probe shadow once built. It grows as
// views read and evaluate.
func (t *Tables) Bytes() int64 {
	lattice := int64(8 * t.n)
	b := t.lazyBytes.Load()
	t.mu.RLock()
	for _, c := range t.chains {
		for k := range c.pre {
			b += c.base[k].Bytes() + slotBytes*int64(len(c.pre[k])) + int64(c.built[k].Load())*lattice
		}
	}
	t.mu.RUnlock()
	if sh := t.shadow.Load(); sh != nil {
		b += sh.Bytes()
	}
	return b
}

// probeShadow returns (building on first use) the half-resolution
// tables ProbeGridError compares against: twice the step over the same
// horizon, with the model's default factors — the probe evaluates at
// those.
func (t *Tables) probeShadow() (*Tables, error) {
	t.shadowOnce.Do(func() {
		// The first and last bounds are Config.MaxQueue's two entries on
		// two servers and its larger one otherwise.
		bounds := [2]int{t.maxQueue[0], t.maxQueue[len(t.maxQueue)-1]}
		sh, err := NewTables(t.model, Config{Dx: 2 * t.dx, N: t.n / 2, MaxQueue: bounds})
		if err != nil {
			t.shadowErr = fmt.Errorf("direct: build probe solver: %w", err)
			return
		}
		t.shadow.Store(sh)
	})
	return t.shadow.Load(), t.shadowErr
}

// cell is a write-once value: the first get computes it with fill, and
// every get arriving meanwhile waits for that computation. filled reports
// whether this get ran fill. A hit allocates nothing.
type cell[T any] struct {
	once    sync.Once
	filling atomic.Bool
	v       T
}

// spinFor is how long a get that finds the value being filled yields its
// processor before it blocks: on a loaded two-core host a blocked waiter
// wakes later than a sweep's transfer laws and spectra fill.
const spinFor = time.Millisecond

func (c *cell[T]) get(fill func() T) (v T, filled bool) {
	if c.filling.Load() {
		for t0 := time.Now(); c.filling.Load() && time.Since(t0) < spinFor; {
			runtime.Gosched()
		}
	}
	c.once.Do(func() {
		c.filling.Store(true)
		c.v, filled = fill(), true
		c.filling.Store(false)
	})
	return c.v, filled
}

// cellOf returns m's entry for key, adding an empty one on first sight.
func cellOf[K comparable, V any](mu *sync.RWMutex, m map[K]*V, key K) *V {
	mu.RLock()
	c := m[key]
	mu.RUnlock()
	if c != nil {
		return c
	}
	mu.Lock()
	defer mu.Unlock()
	if m[key] == nil {
		m[key] = new(V)
	}
	return m[key]
}

// transfer is one group transfer time: the model's law and its lattice.
type transfer struct {
	law dist.Dist
	lat *gridfn.Lattice
}

// zEntry is what the tables keep of one transfer signature, each part
// made on first read: the model's law, the mean pre-bound's scalars of
// its lattice (see zBounds) and the lattice itself, tabulated through
// its first done points — all of them, and its tail, once done is n —
// and extended under mu as readers need more (see transferLattice).
type zEntry struct {
	law    cell[dist.Dist]
	bounds cell[zBounds]
	mu     sync.Mutex
	done   atomic.Int32
	lat    *gridfn.Lattice
}

// zBounds bounds, from below and without tabulating it, what the mean's
// screen reads of a transfer lattice: low ≤ its mass through the split
// (massThrough) and mean ≤ its Mean().
type zBounds struct{ low, mean float64 }

// zStair is the stride, in lattice points, of the staircase zBounds.mean
// sums.
const zStair = 16

// stairPoints lends transferBounds its batch of half-points: handed to a
// law's batch CDF through an interface, an array on its stack would
// move to the heap on every call.
var stairPoints = sync.Pool{New: func() any { return new([64]float64) }}

// freqOf returns (computing on first read) the spectrum of the j-fold
// effective service sum at server k under replication factor fac.
func (s *Solver) freqOf(k, fac, j int, w *gridfn.Work) *gridfn.Spectrum {
	c := s.chains[fac-1]
	spec, filled := c.spec[k][j].get(func() *gridfn.Spectrum {
		fftMisses.Inc()
		pre := s.prefix(c, k, j, w)
		sp := s.span.Child("fft", "server", k, "fold", j, "prefix_tail", pre.Tail)
		defer sp.End()
		spec := pre.Spectrum()
		s.t.lazyBytes.Add(spec.Bytes())
		return spec
	})
	if !filled {
		fftHits.Inc()
	}
	return spec
}

// transferEntry returns the cache entry of the transfer of a group of
// tasks ≥ 1 tasks from src to dst, with its law made.
func (t *Tables) transferEntry(tasks, src, dst int) (*zEntry, dist.Dist) {
	e := cellOf(&t.mu, t.zCache, [3]int{tasks, src, dst})
	law, _ := e.law.get(func() dist.Dist { return t.model.Transfer(tasks, src, dst) })
	return e, law
}

// transferOf returns the transfer time of a group of `tasks` tasks from
// src to dst (none for an empty group), cached per signature, with its
// whole lattice.
func (s *Solver) transferOf(tasks, src, dst int) transfer {
	if tasks <= 0 {
		return transfer{}
	}
	law, lat := s.transferLattice(tasks, src, dst, s.t.n)
	return transfer{law: law, lat: lat}
}

// transferLattice returns the law of the transfer of a group of tasks ≥
// 1 tasks from src to dst and its lattice with at least its first m
// points tabulated, as FromCDF tabulates them: all of them, and the
// tail, for m = n. A reader reads only those m. The first tabulation is
// a transfer cache miss and every other read a hit; each tabulation is a
// transfer_law span.
func (s *Solver) transferLattice(tasks, src, dst, m int) (dist.Dist, *gridfn.Lattice) {
	t, m := s.t, max(m, 1)
	e, law := t.transferEntry(tasks, src, dst)
	if int(e.done.Load()) >= m {
		zHits.Inc()
		return law, e.lat
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.lat == nil {
		zMisses.Inc()
		e.lat = gridfn.New(t.dx, t.n)
		t.lazyBytes.Add(int64(8 * t.n))
	} else {
		zHits.Inc()
	}
	if have := int(e.done.Load()); have < m {
		sp := s.span.Child("transfer_law", "tasks", tasks, "src", src, "dst", dst, "from", have, "to", m)
		e.lat.Tabulate(law, have, m)
		sp.End()
		e.done.Store(int32(m))
	}
	return law, e.lat
}

// transferBounds returns (making on first read) the zBounds of the
// transfer of a group of tasks ≥ 1 tasks from src to dst, from the law's
// CDF C at the half-points FromCDF reads it at, so with the same values:
// C(s+½) at the split s, and C at every zStair-th of the rest — n/zStair
// + 1 calls where the lattice makes n.
//
// The lattice's mass through s sums the differences FromCDF stores, which
// telescope to C(s+½); each difference and each addition rounds by at
// most 2⁻⁵³ of a partial sum at most 1, so low, C(s+½) less (n+2)·2⁻⁵²,
// is below it. The lattice's Mean() is Dx·Σ_{i ≤ n−2} (1 − C(i+½))
// (a clamped tail only adds), and C is non-decreasing: over each run of
// zStair points the run's last C bounds every term from below. Computed,
// Mean() sums n products of indices below n and masses summing to 1, so
// it is within (n+3)·2⁻⁵³·H of that sum for the horizon H; mean is the
// staircase less (n+2)·2⁻⁵²·H.
func (t *Tables) transferBounds(tasks, src, dst int) zBounds {
	e, law := t.transferEntry(tasks, src, dst)
	b, _ := e.bounds.get(func() zBounds {
		slack := float64(t.n+2) * 0x1p-52
		var stair float64
		xs := stairPoints.Get().(*[64]float64) // half-points, turned into CDF values a batch at a time
		defer stairPoints.Put(xs)
		for lo := 0; lo <= t.n-2; lo += len(xs) * zStair {
			c := xs[:0]
			for r := lo; r <= t.n-2 && len(c) < len(xs); r += zStair {
				c = append(c, (float64(min(r+zStair-1, t.n-2))+0.5)*t.dx)
			}
			gridfn.CDFs(law, c)
			for j, cdf := range c {
				r := lo + j*zStair
				stair += float64(min(r+zStair-1, t.n-2)-r+1) * (1 - cdf)
			}
		}
		return zBounds{
			low:  law.CDF((float64(t.split())+0.5)*t.dx) - slack,
			mean: stair*t.dx - slack*float64(t.n-1)*t.dx,
		}
	})
	return b
}

// survival returns (tabulating on first read) server k's failure-law
// survival on the lattice, S[i] = Survival(i·Dx): every metric that
// weighs a finish law by it reads the table, so the law is evaluated
// once per lattice point per model rather than once per point per
// policy. A server that never fails has none (nil).
func (t *Tables) survival(k int) []float64 {
	y := t.model.Failure[k]
	if _, never := y.(dist.Never); never {
		return nil
	}
	sv, _ := t.surv[k].get(func() []float64 {
		sv := make([]float64, t.n)
		for i := range sv {
			sv[i] = y.Survival(float64(i) * t.dx)
		}
		t.lazyBytes.Add(int64(8 * t.n))
		return sv
	})
	return sv
}

// through returns how many lattice points the metrics count as at or
// before x: those before the first with i·Dx > x (all of them for NaN).
func (t *Tables) through(x float64) int {
	if x < 0 {
		return 0
	}
	if !(x < float64(t.n-1)*t.dx) {
		return t.n
	}
	i := int(x / t.dx)
	for i+1 < t.n && float64(i+1)*t.dx <= x {
		i++
	}
	for i >= 0 && float64(i)*t.dx > x {
		i--
	}
	return i + 1
}
