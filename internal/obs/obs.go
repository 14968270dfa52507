// Package obs is the repository's observability layer: a dependency-free
// (stdlib-only) metrics registry with atomic counters, gauges and
// fixed-bucket histograms; Prometheus text-format and JSON exposition
// over an opt-in HTTP endpoint (plus expvar and net/http/pprof wiring);
// and structured run-scoped logging with per-phase spans via log/slog.
//
// Instrumented packages declare package-level lazy handles:
//
//	var simReps = obs.NewCounter("dtr_sim_replications_total")
//
// Lazy handles are inert until a Registry is installed with SetDefault —
// the no-op path is a single atomic load and branch, so instrumentation
// costs ~nothing when disabled (see BenchmarkNoop*). Installing a
// registry binds every declared handle, which also pre-creates the
// metrics at zero so exposition shows the full catalogue from the start
// of a run.
//
// The CLIs opt in through BindFlags/Start (-metrics-addr, -pprof,
// -log-level, -progress, -metrics-dump).
package obs

import (
	"sync"
	"sync/atomic"
)

// defaultReg is the process-wide registry; nil means observability is
// disabled and every lazy handle is a no-op.
var defaultReg atomic.Pointer[Registry]

var (
	lazyMu sync.Mutex
	lazies []binder
)

// binder is any lazy handle that can be (re)bound to a registry.
type binder interface{ bind(r *Registry) }

// Default returns the installed registry, or nil when observability is
// disabled. All Registry methods are nil-receiver-safe, so
// obs.Default().Counter("x") is always valid and returns a no-op handle
// when disabled.
func Default() *Registry { return defaultReg.Load() }

// SetDefault installs r as the process-wide registry (nil disables
// observability again) and binds every lazy handle declared so far —
// creating each metric in r at zero — plus any declared later.
func SetDefault(r *Registry) {
	lazyMu.Lock()
	defer lazyMu.Unlock()
	defaultReg.Store(r)
	for _, l := range lazies {
		l.bind(r)
	}
}

// register adds a lazy handle and binds it to the current default.
func register(l binder) {
	lazyMu.Lock()
	defer lazyMu.Unlock()
	lazies = append(lazies, l)
	l.bind(defaultReg.Load())
}

// LazyCounter is a package-level counter handle; no-op until SetDefault.
type LazyCounter struct {
	name string
	c    atomic.Pointer[Counter]
}

// NewCounter declares a lazy counter under the given Prometheus-style
// name (an optional {label="v",...} suffix is allowed).
func NewCounter(name string) *LazyCounter {
	l := &LazyCounter{name: name}
	register(l)
	return l
}

func (l *LazyCounter) bind(r *Registry) { l.c.Store(r.Counter(l.name)) }

// Inc adds one.
func (l *LazyCounter) Inc() {
	if c := l.c.Load(); c != nil {
		c.Add(1)
	}
}

// Add adds n.
func (l *LazyCounter) Add(n uint64) {
	if c := l.c.Load(); c != nil {
		c.Add(n)
	}
}

// Value returns the current count (0 when unbound).
func (l *LazyCounter) Value() uint64 {
	if c := l.c.Load(); c != nil {
		return c.Value()
	}
	return 0
}

// LazyGauge is a package-level gauge handle; no-op until SetDefault.
type LazyGauge struct {
	name string
	g    atomic.Pointer[Gauge]
}

// NewGauge declares a lazy gauge.
func NewGauge(name string) *LazyGauge {
	l := &LazyGauge{name: name}
	register(l)
	return l
}

func (l *LazyGauge) bind(r *Registry) { l.g.Store(r.Gauge(l.name)) }

// Set stores x.
func (l *LazyGauge) Set(x float64) {
	if g := l.g.Load(); g != nil {
		g.Set(x)
	}
}

// LazyHistogram is a package-level histogram handle; no-op until
// SetDefault.
type LazyHistogram struct {
	name    string
	buckets []float64
	h       atomic.Pointer[Histogram]
}

// NewHistogram declares a lazy histogram with the given upper bucket
// bounds (DefBuckets when nil).
func NewHistogram(name string, buckets []float64) *LazyHistogram {
	l := &LazyHistogram{name: name, buckets: buckets}
	register(l)
	return l
}

// NewTimer declares a lazy histogram of wall durations in seconds with
// the default time buckets; observe with ObserveSince or Observe.
func NewTimer(name string) *LazyHistogram { return NewHistogram(name, nil) }

func (l *LazyHistogram) bind(r *Registry) { l.h.Store(r.Histogram(l.name, l.buckets)) }

// Observe records x.
func (l *LazyHistogram) Observe(x float64) {
	if h := l.h.Load(); h != nil {
		h.Observe(x)
	}
}
