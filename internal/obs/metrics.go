package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The nil counter
// is a valid no-op.
type Counter struct {
	v atomic.Uint64
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 that can go up and down. The nil gauge is a
// valid no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores x.
func (g *Gauge) Set(x float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(x))
}

// Add adds x (atomically, via compare-and-swap).
func (g *Gauge) Add(x float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + x)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefBuckets are the default histogram bounds: wall durations in seconds
// from 100 µs to two minutes, roughly log-spaced.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// ExpBuckets returns n bounds start, start·factor, start·factor², ….
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	x := start
	for i := range out {
		out[i] = x
		x *= factor
	}
	return out
}

// Histogram is a fixed-bucket histogram with atomic per-bucket counts, a
// running sum and a total count. Observations above the last bound land
// in an implicit +Inf bucket. The nil histogram is a valid no-op.
type Histogram struct {
	upper  []float64 // sorted upper bounds; +Inf bucket is implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    Gauge
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	h := &Histogram{upper: append([]float64(nil), buckets...)}
	h.counts = make([]atomic.Uint64, len(h.upper)+1)
	return h
}

// Observe records the value x.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.upper) && x > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(x)
}

// ObserveSince records the wall time elapsed since t0, in seconds.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// ObserveSince records the wall time elapsed since t0, in seconds.
func (l *LazyHistogram) ObserveSince(t0 time.Time) {
	if h := l.h.Load(); h != nil {
		h.ObserveSince(t0)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Upper  []float64 `json:"upper"`  // bucket upper bounds (+Inf implicit)
	Counts []uint64  `json:"counts"` // per-bucket counts, len(Upper)+1
}

// Snapshot copies the histogram state. Buckets are read without a global
// lock, so a snapshot taken mid-observation can be off by the in-flight
// observation — fine for exposition.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Value(),
		Upper: append([]float64(nil), h.upper...),
	}
	s.Counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Mean returns the average observation (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// within the containing bucket; observations in the +Inf bucket report
// the last finite bound.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Upper) == 0 {
		return 0
	}
	target := q * float64(s.Count)
	var cum uint64
	lo := 0.0
	for i, c := range s.Counts {
		if i >= len(s.Upper) {
			return s.Upper[len(s.Upper)-1]
		}
		hi := s.Upper[i]
		if float64(cum+c) >= target {
			if c == 0 {
				return hi
			}
			frac := (target - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + frac*(hi-lo)
		}
		cum += c
		lo = hi
	}
	return s.Upper[len(s.Upper)-1]
}
