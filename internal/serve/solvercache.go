package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"weak"

	"dtr/internal/core"
	"dtr/internal/direct"
	"dtr/internal/obs"
)

// defaultSolverCacheBytes is about two live 2048-point models with
// their spectra; see DESIGN.md §14 for the measurements behind it.
const defaultSolverCacheBytes = 16 << 20

// doorkeeperSize bounds the recently-seen model keys remembered for
// admission (32 bytes and a weak pointer each); a full doorkeeper starts
// over.
const doorkeeperSize = 1024

// solverKey names a model's tables: SHA-256 over the canonical spec
// document and the lattice size — not the verb, the options, the probe
// flag or the replication factor, which only select what a request's
// view reads.
type solverKey [sha256.Size]byte

// solverCache is the solver-table tier under the result cache: the
// direct.Tables of recently repeated models, so the requests a
// controller sends about one system (optimize → metrics → cdf → explain)
// build its k-fold prefix chains once. It holds what a model owns only;
// every request still gets its own solver view, so responses — explain's
// diagnostics included — are the bytes an uncached service returns.
//
// Admission is on second sighting: the first request for a model builds
// privately, exactly as a service without the tier, and leaves in a
// bounded doorkeeper only its key and a weak pointer to that build; the
// second adopts the first build if the collector has not reclaimed it,
// builds otherwise, and retains. A weak pointer keeps nothing alive, so
// traffic that never repeats a model retains nothing. Retained entries
// are LRU under a byte budget that charges the tables and their lazily
// filled spectra, re-measured whenever a request returns its lease; an
// entry in use is never evicted under its user, and one that alone
// exceeds the budget is dropped as soon as it is idle.
type solverCache struct {
	budget int64
	reg    *obs.Registry

	mu    sync.Mutex
	bytes int64
	ll    *list.List // retained entries, front = most recently used
	byKey map[solverKey]*solverEntry
	seen  map[solverKey]weak.Pointer[direct.Tables] // the doorkeeper
}

type solverEntry struct {
	key solverKey
	// retained is false for a first sighting's private build, which
	// never enters the tier.
	retained bool
	// ready is closed once tables (or err) is set: requests that arrive
	// while the first build runs wait for it instead of building again.
	ready  chan struct{}
	tables *direct.Tables
	err    error
	users  int           // leases out
	bytes  int64         // footprint when last measured
	el     *list.Element // nil once dropped
}

// newSolverCache returns the tier for a byte budget (0 = default), or
// nil — tier off — for a negative one.
func newSolverCache(budget int64, reg *obs.Registry) *solverCache {
	if budget < 0 {
		return nil
	}
	if budget == 0 {
		budget = defaultSolverCacheBytes
	}
	return &solverCache{
		budget: budget,
		reg:    reg,
		ll:     list.New(),
		byKey:  make(map[solverKey]*solverEntry),
		seen:   make(map[solverKey]weak.Pointer[direct.Tables]),
	}
}

// sighted records key in the doorkeeper and reports whether it was
// already there, with the weak pointer to its first build (nil until
// that build is done). Caller holds mu.
func (c *solverCache) sighted(key solverKey) (first weak.Pointer[direct.Tables], seen bool) {
	if first, ok := c.seen[key]; ok {
		return first, true
	}
	if len(c.seen) >= doorkeeperSize {
		clear(c.seen)
	}
	c.seen[key] = first
	return first, false
}

// acquire returns an entry holding the tables for key: a retained one
// (hit), or — retained too when this is at least the key's second
// sighting, private to the caller otherwise — the first sighting's build
// if it is still alive (adopted), the result of build if not. The caller
// must release a retained entry.
func (c *solverCache) acquire(key solverKey, build func() (*direct.Tables, error)) (e *solverEntry, hit, adopted bool, err error) {
	c.mu.Lock()
	if e = c.byKey[key]; e != nil {
		e.users++
		c.ll.MoveToFront(e.el)
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, false, false, e.err // the builder drops the entry, leases and all
		}
		c.reg.Counter("dtr_serve_solver_cache_hits_total").Add(1)
		return e, true, false, nil
	}
	c.reg.Counter("dtr_serve_solver_cache_misses_total").Add(1)
	first, seen := c.sighted(key)
	if !seen {
		c.mu.Unlock()
		e = &solverEntry{key: key}
		if e.tables, err = build(); err == nil {
			c.mu.Lock()
			if _, ok := c.seen[key]; ok {
				c.seen[key] = weak.Make(e.tables)
			}
			c.mu.Unlock()
		}
		return e, false, false, err
	}
	e = &solverEntry{key: key, retained: true, ready: make(chan struct{}), users: 1}
	e.el = c.ll.PushFront(e)
	c.byKey[key] = e
	c.mu.Unlock()

	if e.tables = first.Value(); e.tables != nil {
		adopted = true
	} else {
		e.tables, e.err = build()
	}
	close(e.ready)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.err != nil {
		c.drop(e)
		return nil, false, false, e.err
	}
	c.reg.Counter("dtr_serve_solver_cache_admitted_total").Add(1)
	c.settle(e)
	return e, false, adopted, nil
}

// release returns one lease on e and re-measures it: the tables grew by
// whatever spectra, transfer laws, factor chains or probe shadow the
// request filled in.
func (c *solverCache) release(e *solverEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.users--
	c.settle(e)
}

// settle re-measures e, then evicts idle entries, least recently used
// first, while the tier is over budget. Caller holds mu.
func (c *solverCache) settle(e *solverEntry) {
	if e.el != nil {
		now := e.tables.Bytes()
		c.bytes += now - e.bytes
		e.bytes = now
	}
	for el := c.ll.Back(); el != nil && c.bytes > c.budget; {
		prev := el.Prev()
		if old := el.Value.(*solverEntry); old.users == 0 {
			c.drop(old)
			c.reg.Counter("dtr_serve_solver_cache_evictions_total").Add(1)
		}
		el = prev
	}
	c.reg.Gauge("dtr_serve_solver_cache_entries").Set(float64(c.ll.Len()))
	c.reg.Gauge("dtr_serve_solver_cache_bytes").Set(float64(c.bytes))
}

// drop removes e from the tier; leases still out stay valid. Caller
// holds mu.
func (c *solverCache) drop(e *solverEntry) {
	if e.el == nil {
		return
	}
	c.ll.Remove(e.el)
	e.el = nil
	delete(c.byKey, e.key)
	c.bytes -= e.bytes
}

// solverLease is one request's access to the tier: the solver source
// compute attaches to the request's dtr.System, and the entries to give
// back when the request is done. A nil lease (tier off) is valid and
// attaches nothing.
type solverLease struct {
	cache *solverCache
	spec  []byte // canonical spec document
	held  []*solverEntry
}

func (c *solverCache) lease(pr *parsedRequest) *solverLease {
	if c == nil {
		return nil
	}
	return &solverLease{cache: c, spec: pr.specJSON}
}

// solver is the lease's solversrc.Func: a fresh view of the model's
// tables, found in the tier or built by the constructor every System
// uses. The "solver_cache" span records what the tier did; a
// "solver_build" span appears beside it only when a chain was built.
func (l *solverLease) solver(m *core.Model, cfg direct.Config) (*direct.Solver, error) {
	sp := cfg.Span.Child("solver_cache")
	defer sp.End()
	h := sha256.New()
	h.Write(l.spec)
	var grid [8]byte
	binary.LittleEndian.PutUint64(grid[:], uint64(cfg.N))
	h.Write(grid[:])
	var key solverKey
	h.Sum(key[:0])

	e, hit, adopted, err := l.cache.acquire(key, func() (*direct.Tables, error) {
		return direct.NewTables(m, cfg)
	})
	if err != nil {
		return nil, err
	}
	if e.retained {
		l.held = append(l.held, e)
	}
	sv, built := e.tables.View(cfg.MaxFactor, cfg.Span)
	extended := hit && built > 0
	if extended {
		l.cache.reg.Counter("dtr_serve_solver_cache_extended_total").Add(1)
	}
	sp.SetAttr("hit", hit)
	sp.SetAttr("admitted", e.retained && !hit)
	sp.SetAttr("adopted", adopted)
	sp.SetAttr("extended", extended)
	sp.SetAttr("bytes", e.tables.Bytes())
	return sv, nil
}

// release gives back every entry the request used.
func (l *solverLease) release() {
	if l == nil {
		return
	}
	for _, e := range l.held {
		l.cache.release(e)
	}
	l.held = nil
}
