package obs

import (
	"math"
	"sync"
	"testing"
)

// withRegistry installs a fresh default registry for the test and removes
// it afterwards (tests in this package share the process-wide default, so
// none of them may run in parallel).
func withRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	SetDefault(r)
	t.Cleanup(func() { SetDefault(nil) })
	return r
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*per {
		t.Fatalf("counter = %d, want %d", got, goroutines*per)
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g")
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				g.Add(0.5)
			}
		}()
	}
	wg.Wait()
	want := 0.5 * goroutines * per
	if got := g.Value(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("gauge = %g, want %g", got, want)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 2, 4})
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(g%4) + 0.5) // 0.5, 1.5, 2.5, 3.5
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*per)
	}
	// Per value: 0.5 → bucket le=1, 1.5 → le=2, 2.5 and 3.5 → le=4.
	wantCounts := []uint64{2 * per, 2 * per, 4 * per, 0}
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	wantSum := float64(2*per)*0.5 + float64(2*per)*1.5 + float64(2*per)*2.5 + float64(2*per)*3.5
	if math.Abs(s.Sum-wantSum) > 1e-6 {
		t.Fatalf("sum = %g, want %g", s.Sum, wantSum)
	}
}

func TestHistogramQuantileAndMean(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", []float64{1, 2, 4})
	for _, x := range []float64{0.5, 1.5, 3} {
		h.Observe(x)
	}
	s := h.Snapshot()
	if got := s.Mean(); math.Abs(got-(0.5+1.5+3)/3) > 1e-9 {
		t.Fatalf("mean = %g", got)
	}
	// Median: interpolated inside the le=2 bucket.
	if got := s.Quantile(0.5); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("p50 = %g, want 1.5", got)
	}
	if got := s.Quantile(1); math.Abs(got-4) > 1e-9 {
		t.Fatalf("p100 = %g, want 4", got)
	}
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %g, want 0", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", nil)
	c.Add(3)
	g.Set(1)
	g.Add(2)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil metrics must be no-ops")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestLazyBinding(t *testing.T) {
	c := NewCounter("dtr_test_lazy_total")
	h := NewHistogram("dtr_test_lazy_seconds", []float64{1})
	c.Inc() // unbound: dropped
	h.Observe(1)

	r := withRegistry(t)
	// Binding pre-creates the metrics at zero.
	s := r.Snapshot()
	if v, ok := s.Counters["dtr_test_lazy_total"]; !ok || v != 0 {
		t.Fatalf("lazy counter not pre-registered at zero: %v", s.Counters)
	}
	if _, ok := s.Histograms["dtr_test_lazy_seconds"]; !ok {
		t.Fatal("lazy histogram not pre-registered")
	}
	c.Inc()
	c.Add(2)
	h.Observe(0.5)
	if got := c.Value(); got != 3 {
		t.Fatalf("bound counter = %d, want 3", got)
	}
	if got := r.Histogram("dtr_test_lazy_seconds", nil).Count(); got != 1 {
		t.Fatalf("bound histogram count = %d, want 1", got)
	}

	SetDefault(nil)
	c.Inc() // unbound again: dropped
	if got := c.Value(); got != 0 {
		t.Fatalf("unbound counter reports %d, want 0", got)
	}
	if got := r.Counter("dtr_test_lazy_total").Value(); got != 3 {
		t.Fatalf("old registry mutated after unbind: %d", got)
	}
}

func TestNameAndSanitize(t *testing.T) {
	if got := Name("x", "worker", 3); got != `x{worker="3"}` {
		t.Fatalf("Name = %q", got)
	}
	if got := Name("x", "a", "1", "b", "2"); got != `x{a="1",b="2"}` {
		t.Fatalf("Name = %q", got)
	}
	if got := sanitizeName(`bad-name.9{le="0.5"}`); got != `bad_name_9{le="0.5"}` {
		t.Fatalf("sanitizeName = %q", got)
	}
	base, labels := splitName(`x{a="1"}`)
	if base != "x" || labels != `{a="1"}` {
		t.Fatalf("splitName = %q, %q", base, labels)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("c") != r.Counter("c") {
		t.Fatal("Counter must return the same instance per name")
	}
	h1 := r.Histogram("h", []float64{1, 2})
	h2 := r.Histogram("h", []float64{9}) // existing buckets win
	if h1 != h2 {
		t.Fatal("Histogram must return the same instance per name")
	}
	if got := len(h1.Snapshot().Upper); got != 2 {
		t.Fatalf("buckets overwritten: %d bounds", got)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v", got)
		}
	}
}

// Benchmarks: the no-op path is the price every instrumented package pays
// when observability is disabled — it must stay at ~1 ns (one atomic load
// plus a branch, no allocation).

func benchReset(b *testing.B, r *Registry) {
	b.Helper()
	SetDefault(r)
	b.Cleanup(func() { SetDefault(nil) })
}

var benchCounter = NewCounter("dtr_bench_counter_total")
var benchHist = NewHistogram("dtr_bench_hist", nil)

func BenchmarkNoopCounterInc(b *testing.B) {
	benchReset(b, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchCounter.Inc()
	}
}

func BenchmarkLiveCounterInc(b *testing.B) {
	benchReset(b, NewRegistry())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchCounter.Inc()
	}
}

func BenchmarkNoopHistogramObserve(b *testing.B) {
	benchReset(b, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchHist.Observe(0.01)
	}
}

func BenchmarkLiveHistogramObserve(b *testing.B) {
	benchReset(b, NewRegistry())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchHist.Observe(0.01)
	}
}
