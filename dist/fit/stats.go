package fit

// Windowed sufficient statistics: the bounded-memory counterpart of
// Sample. A streaming ingest tier (internal/ingest) cannot retain raw
// events — at production volume a per-channel window holds millions of
// observations — so it accumulates, per delay channel, the sufficient
// statistics the §III-B censored-MLE refit needs:
//
//   - exact-observation count, sum, sum of logs and sum of squares
//     (closed-form exponential and gamma MLEs need nothing else);
//   - a deterministic mergeable log-spaced histogram sketch of the
//     exact observations (quantile reconstruction + sketch-backed KS
//     for the families without closed forms, and for model selection);
//   - censored-observation count, bound sum and a bound sketch (the
//     censored likelihood terms and the events-over-exposure failure
//     estimator);
//   - exact min/max, which pin the support-sensitive estimators
//     (Pareto x_m, the shifted-gamma shift profile).
//
// Two Stats with the same sketch geometry merge exactly: every field is
// a sum or an extremum, so merge(A, B) equals the stats computed over
// A ∪ B (locked by TestStatsMergeProperty). Memory is
// O(buckets), independent of how many events were observed.

import (
	"fmt"
	"math"

	"dtr/dist"
	"dtr/internal/trace"
	"dtr/modelspec"
)

// Sketch geometry: fixed log-spaced buckets over [HistLo, HistHi), so
// two sketches with the same bucket count are always mergeable. With
// the default 512 buckets each bucket spans a factor of
// (HistHi/HistLo)^(1/512) ≈ 1.055 — 2.7% worst-case relative error at
// the bucket midpoint, far inside the golden-fit tolerances.
const (
	// HistLo and HistHi bound the sketch's bucketed range in model time
	// units; values below HistLo or at/above HistHi land in dedicated
	// under/overflow counters and are reconstructed against the exact
	// min/max.
	HistLo = 1e-6
	HistHi = 1e6
	// DefaultBuckets is the default sketch resolution.
	DefaultBuckets = 512
	// DefaultPseudoSample bounds the sample reconstructed from a sketch
	// for the families whose censored MLE has no closed form.
	DefaultPseudoSample = 4096
	// ZeroFloor substitutes for a zero-valued exact observation. The
	// wire formats admit value 0 (timers round down), but the log-moment
	// accumulator needs positivity: folding log(0) = -Inf into SumLog
	// would make the whole window fail Validate until it rotates out.
	ZeroFloor = 1e-9
)

// LogHist is a fixed-size mergeable histogram with log-spaced buckets
// over [HistLo, HistHi). It is the deterministic sketch behind Stats:
// same bucket count ⇒ identical bucket edges ⇒ exact merges.
type LogHist struct {
	// Buckets is the bucket count (geometry key for merging).
	Buckets int `json:"buckets"`
	// Counts holds one count per bucket; len(Counts) == Buckets. A nil
	// slice means "all zero" (the JSON form of a fresh sketch).
	Counts []uint64 `json:"counts,omitempty"`
	// Under and Over count observations below HistLo and at/above
	// HistHi respectively.
	Under uint64 `json:"under,omitempty"`
	Over  uint64 `json:"over,omitempty"`
}

// NewLogHist returns an empty sketch with n buckets (DefaultBuckets
// when n <= 0).
func NewLogHist(n int) *LogHist {
	if n <= 0 {
		n = DefaultBuckets
	}
	return &LogHist{Buckets: n, Counts: make([]uint64, n)}
}

// logRange is log(HistHi / HistLo), precomputed.
var logRange = math.Log(HistHi / HistLo)

// edge returns the lower edge of bucket i (i == Buckets gives HistHi).
func (h *LogHist) edge(i int) float64 {
	return HistLo * math.Exp(logRange*float64(i)/float64(h.Buckets))
}

// Observe adds one observation.
func (h *LogHist) Observe(x float64) {
	switch {
	case x < HistLo:
		h.Under++
	case x >= HistHi:
		h.Over++
	default:
		i := int(math.Log(x/HistLo) / logRange * float64(h.Buckets))
		if i < 0 {
			i = 0
		}
		if i >= h.Buckets {
			i = h.Buckets - 1
		}
		if h.Counts == nil {
			h.Counts = make([]uint64, h.Buckets)
		}
		h.Counts[i]++
	}
}

// Total returns the number of observations in the sketch.
func (h *LogHist) Total() uint64 {
	t := h.Under + h.Over
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Merge adds o into h. The sketches must share a bucket count.
func (h *LogHist) Merge(o *LogHist) error {
	if o == nil {
		return nil
	}
	if h.Buckets != o.Buckets {
		return fmt.Errorf("fit: cannot merge %d-bucket sketch into %d-bucket sketch", o.Buckets, h.Buckets)
	}
	h.Under += o.Under
	h.Over += o.Over
	if len(o.Counts) == 0 {
		return nil
	}
	if h.Counts == nil {
		h.Counts = make([]uint64, h.Buckets)
	}
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	return nil
}

// quantiles fills dst with the quantiles of the sketched distribution at
// the levels (j+½)/len(dst), log-linearly interpolated within buckets.
// lo and hi substitute for the unknowable positions of underflow and
// overflow mass (callers pass the exact observed min/max). The levels
// ascend, so one walk over the buckets serves them all.
func (h *LogHist) quantiles(dst []float64, lo, hi float64) {
	total, under := float64(h.Total()), float64(h.Under)
	cum, i := under, 0 // cum is the mass below bucket i
	for j := range dst {
		rank := (float64(j) + 0.5) / float64(len(dst)) * total
		for i < len(h.Counts) && rank > cum+float64(h.Counts[i]) {
			cum += float64(h.Counts[i])
			i++
		}
		switch u := math.Min(HistLo, hi); {
		case rank <= under && under > 0 && u > lo:
			// Underflow mass: interpolate linearly on [lo, HistLo).
			dst[j] = lo + (u-lo)*rank/under
		case rank <= under:
			dst[j] = lo
		case i == len(h.Counts):
			dst[j] = hi
		default:
			a, b := h.edge(i), h.edge(i+1)
			dst[j] = clamp(a*math.Pow(b/a, (rank-cum)/float64(h.Counts[i])), lo, hi)
		}
	}
}

func clamp(x, lo, hi float64) float64 {
	if lo < hi {
		if x < lo {
			return lo
		}
		if x > hi {
			return hi
		}
	}
	return x
}

// footprint returns the sketch's memory footprint in bytes. It depends
// only on the geometry, never on how many observations were fed in —
// the bounded-memory contract the ingest tier relies on.
func (h *LogHist) footprint() int {
	return 8*h.Buckets + 24
}

// Stats is the bounded-memory summary of one delay channel's censored
// sample: exact sufficient statistics plus fixed-size sketches. The
// zero value is not usable — build with NewStats (or decode from JSON).
type Stats struct {
	// N, Sum, SumLog and SumSq summarize the exact (uncensored)
	// observations.
	N      uint64  `json:"n"`
	Sum    float64 `json:"sum"`
	SumLog float64 `json:"sumLog"`
	SumSq  float64 `json:"sumSq"`
	// Min and Max are the exact observed extremes (meaningful when
	// N > 0).
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// CensN and CensSum summarize the right-censored observations
	// (lower bounds); CensSum is the censored part of the exposure.
	CensN   uint64  `json:"censN,omitempty"`
	CensSum float64 `json:"censSum,omitempty"`
	// Hist sketches the exact observations, CensHist the censoring
	// bounds.
	Hist     *LogHist `json:"hist,omitempty"`
	CensHist *LogHist `json:"censHist,omitempty"`
}

// NewStats returns an empty Stats with the given sketch resolution
// (DefaultBuckets when buckets <= 0).
func NewStats(buckets int) *Stats {
	return &Stats{Hist: NewLogHist(buckets), CensHist: NewLogHist(buckets)}
}

// Observe folds one observation into the statistics. Exact observations
// at or below zero are clamped to ZeroFloor so every accumulator stays
// finite; censored bounds pass through (a zero bound carries no log).
func (s *Stats) Observe(value float64, censored bool) {
	if censored {
		s.CensN++
		s.CensSum += value
		if s.CensHist == nil {
			s.CensHist = NewLogHist(s.buckets())
		}
		s.CensHist.Observe(value)
		return
	}
	if value <= 0 {
		value = ZeroFloor
	}
	if s.N == 0 || value < s.Min {
		s.Min = value
	}
	if s.N == 0 || value > s.Max {
		s.Max = value
	}
	s.N++
	s.Sum += value
	s.SumLog += math.Log(value)
	s.SumSq += value * value
	if s.Hist == nil {
		s.Hist = NewLogHist(s.buckets())
	}
	s.Hist.Observe(value)
}

// buckets returns the sketch resolution in use.
func (s *Stats) buckets() int {
	if s.Hist != nil {
		return s.Hist.Buckets
	}
	if s.CensHist != nil {
		return s.CensHist.Buckets
	}
	return 0
}

// Total returns the total observation count, censored included.
func (s *Stats) Total() uint64 { return s.N + s.CensN }

// CensoredFrac returns the censored fraction.
func (s *Stats) CensoredFrac() float64 {
	if s.Total() == 0 {
		return 0
	}
	return float64(s.CensN) / float64(s.Total())
}

// Exact returns the number of exact observations.
func (s *Stats) Exact() int { return int(s.N) }

// Censored returns the number of right-censored observations.
func (s *Stats) Censored() int { return int(s.CensN) }

// Mean returns the mean of the exact observations (0 when empty).
func (s *Stats) Mean() float64 {
	if s.N == 0 {
		return 0
	}
	return s.Sum / float64(s.N)
}

// StdDev returns the population standard deviation of the exact
// observations, straight from the accumulators.
func (s *Stats) StdDev() float64 {
	if s.N < 2 {
		return 0
	}
	n := float64(s.N)
	v := s.SumSq/n - (s.Sum/n)*(s.Sum/n)
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Merge folds o into s. Every field is a sum or an extremum, so the
// result equals the statistics of the union of the two windows; the
// sketch geometries must match.
func (s *Stats) Merge(o *Stats) error {
	if o == nil {
		return nil
	}
	if o.Hist != nil {
		if s.Hist == nil {
			s.Hist = NewLogHist(o.Hist.Buckets)
		}
		if err := s.Hist.Merge(o.Hist); err != nil {
			return err
		}
	}
	if o.CensHist != nil {
		if s.CensHist == nil {
			s.CensHist = NewLogHist(o.CensHist.Buckets)
		}
		if err := s.CensHist.Merge(o.CensHist); err != nil {
			return err
		}
	}
	if o.N > 0 {
		if s.N == 0 || o.Min < s.Min {
			s.Min = o.Min
		}
		if s.N == 0 || o.Max > s.Max {
			s.Max = o.Max
		}
	}
	s.N += o.N
	s.Sum += o.Sum
	s.SumLog += o.SumLog
	s.SumSq += o.SumSq
	s.CensN += o.CensN
	s.CensSum += o.CensSum
	return nil
}

// Validate checks the statistics for structural sanity (finite sums,
// counts consistent with the sketches).
func (s *Stats) Validate() error {
	for _, v := range []float64{s.Sum, s.SumLog, s.SumSq, s.Min, s.Max, s.CensSum} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("fit: stats with non-finite field %g", v)
		}
	}
	if s.Sum < 0 || s.CensSum < 0 || s.Min < 0 || s.Max < s.Min {
		return fmt.Errorf("fit: stats with negative or inverted moments")
	}
	if s.Hist != nil && s.Hist.Total() != s.N {
		return fmt.Errorf("fit: sketch holds %d observations, stats claim %d", s.Hist.Total(), s.N)
	}
	if s.CensHist != nil && s.CensHist.Total() != s.CensN {
		return fmt.Errorf("fit: censored sketch holds %d bounds, stats claim %d", s.CensHist.Total(), s.CensN)
	}
	if (s.Hist == nil && s.N > 0) || (s.CensHist == nil && s.CensN > 0) {
		return fmt.Errorf("fit: stats carry counts but no sketch")
	}
	return nil
}

// Footprint returns the memory footprint of the statistics in bytes —
// a pure function of the sketch geometry, constant in the number of
// observations folded in.
func (s *Stats) Footprint() int {
	f := 96 // the fixed scalar fields
	if s.Hist != nil {
		f += s.Hist.footprint()
	}
	if s.CensHist != nil {
		f += s.CensHist.footprint()
	}
	return f
}

// Sample reconstructs a bounded pseudo-sample from the sketches for the
// estimators with no closed form in the sufficient statistics: at most
// maxPoints (DefaultPseudoSample when <= 0) deterministic quantile
// probes, split between exact and censored parts in proportion to their
// true counts, with the exact extremes pinned to the observed min/max
// so support-sensitive estimators (Pareto x_m, shift profiles) see the
// true support edge.
func (s *Stats) Sample(maxPoints int) Sample {
	if maxPoints <= 0 {
		maxPoints = DefaultPseudoSample
	}
	total := s.Total()
	var out Sample
	if total == 0 {
		return out
	}
	ne, nc := int(s.N), int(s.CensN)
	if total > uint64(maxPoints) {
		ne = int(math.Round(float64(maxPoints) * float64(s.N) / float64(total)))
		if ne > maxPoints {
			ne = maxPoints
		}
		nc = maxPoints - ne
		// Never round a present part away entirely.
		if s.N > 0 && ne == 0 {
			ne, nc = 1, maxPoints-1
		}
		if s.CensN > 0 && nc == 0 && maxPoints > 1 {
			ne, nc = maxPoints-1, 1
		}
	}
	if ne > 0 && s.Hist != nil {
		out.Obs = make([]float64, ne)
		s.Hist.quantiles(out.Obs, s.Min, s.Max)
		// Pin the support edges exactly.
		out.Obs[0] = s.Min
		if ne > 1 {
			out.Obs[ne-1] = s.Max
		}
	}
	if nc > 0 && s.CensHist != nil {
		out.Cens = make([]float64, nc)
		// Censoring bounds may sit anywhere in [0, ∞); reconstruct the
		// under/overflow mass against the sketch range itself.
		s.CensHist.quantiles(out.Cens, 0, math.MaxFloat64)
		// The reconstructed bounds' mean is the sketch's; rescale so the
		// total censored exposure matches the exact CensSum — the
		// quantity the exponential events-over-exposure path depends on.
		if got := sum(out.Cens); got > 0 && s.CensSum > 0 {
			scale := s.CensSum / float64(s.CensN) * float64(nc) / got
			for i := range out.Cens {
				out.Cens[i] *= scale
			}
		}
	}
	return out
}

// KS returns the sketch-backed Kolmogorov–Smirnov distance between the
// exact-observation sketch and cdf: the largest gap between the
// sketch's empirical CDF — known exactly at every bucket edge — and the
// candidate law, evaluated at the edges plus the exact extremes.
func (s *Stats) KS(cdf func(float64) float64) float64 {
	if s.N == 0 || s.Hist == nil {
		return 0
	}
	n := float64(s.N)
	var d float64
	probe := func(x, cum float64) {
		if g := math.Abs(cum/n - cdf(x)); g > d {
			d = g
		}
	}
	probe(s.Min, 0)
	cum := float64(s.Hist.Under)
	for i, c := range s.Hist.Counts {
		if c == 0 {
			continue
		}
		probe(math.Max(s.Hist.edge(i), s.Min), cum)
		cum += float64(c)
		probe(math.Min(s.Hist.edge(i+1), s.Max), cum)
	}
	probe(s.Max, n-float64(s.Hist.Over))
	return d
}

// FitStats fits one family to a channel's sufficient statistics.
// Exponential (always) and gamma (when the window is uncensored) come
// in closed form straight from the exact accumulators; the other
// families fit the censored MLE on the sketch-reconstructed
// pseudo-sample. Selection scores are computed on the pseudo-sample,
// except KS, which is sketch-backed (exact at bucket edges).
func FitStats(f Family, s *Stats) (Result, error) { return s.Fit(f) }

// Fit fits one family to the statistics; see FitStats.
func (s *Stats) Fit(f Family) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	return s.fitSample(f, s.Sample(DefaultPseudoSample))
}

// fitSample is Fit on validated statistics and their pseudo-sample, so
// that fitAll reconstructs it once per channel, not once per family.
func (s *Stats) fitSample(f Family, sample Sample) (Result, error) {
	var d dist.Dist
	var err error
	switch {
	case f == FamilyExponential:
		d, err = exponentialMLE(int(s.N), s.Sum+s.CensSum)
	case f == FamilyGamma && s.CensN == 0:
		d, err = gammaMLE(float64(s.N), s.Sum, s.SumLog)
	default:
		d, err = sample.estimate(f)
	}
	if err != nil {
		return Result{}, err
	}
	return score(f, d, sample, s)
}

// SelectStats fits the requested families (Families when fams is nil)
// to the sufficient statistics and picks the winner with the same rule
// as Select: lowest AIC, near-ties (ΔAIC ≤ 2) broken by the smaller
// sketch-backed KS distance.
func SelectStats(s *Stats, fams []Family) (Result, error) { return selectBest(s, fams) }

// StatsSet is the sufficient-statistics counterpart of Samples: one
// Stats per delay channel of a captured system. It is the wire payload
// a dtringest snapshot carries and the input of the stats-backed Spec.
type StatsSet struct {
	Servers  int      `json:"servers"`
	Service  []*Stats `json:"service"`
	Failure  []*Stats `json:"failure"`
	Transfer *Stats   `json:"transfer"`
	FN       *Stats   `json:"fn,omitempty"`
	// Buckets is the sketch resolution new channels are created with.
	Buckets int `json:"buckets,omitempty"`
}

// NewStatsSet returns an empty set sized for n servers with the given
// sketch resolution.
func NewStatsSet(n, buckets int) *StatsSet {
	set := &StatsSet{Buckets: buckets, Transfer: NewStats(buckets)}
	set.Grow(n)
	return set
}

// Grow ensures the set covers at least n servers.
func (set *StatsSet) Grow(n int) {
	for len(set.Service) < n {
		set.Service = append(set.Service, NewStats(set.Buckets))
		set.Failure = append(set.Failure, NewStats(set.Buckets))
	}
	if n > set.Servers {
		set.Servers = n
	}
}

// AddEvent folds one trace event into the set, growing it as new server
// indices appear — the streaming analogue of Collect, through the same
// routing (route).
func (set *StatsSet) AddEvent(ev trace.Event) error {
	if ev.V == 0 {
		ev.V = trace.Version
	}
	return route(ev, set.Grow, func(kind string, server int) observer {
		switch kind {
		case trace.KindService:
			return set.Service[server]
		case trace.KindFailure:
			return set.Failure[server]
		case trace.KindTransfer:
			return set.pooled(&set.Transfer)
		}
		return set.pooled(&set.FN)
	})
}

// pooled returns the pooled channel *p (Transfer or FN), which a decoded
// set may lack, creating it at the set's resolution.
func (set *StatsSet) pooled(p **Stats) *Stats {
	if *p == nil {
		*p = NewStats(set.Buckets)
	}
	return *p
}

// Merge folds o into set channel by channel; the sets must share sketch
// geometry.
func (set *StatsSet) Merge(o *StatsSet) error {
	if o == nil {
		return nil
	}
	set.Grow(o.Servers)
	for i := 0; i < o.Servers; i++ {
		if err := set.Service[i].Merge(o.Service[i]); err != nil {
			return fmt.Errorf("fit: merge service[%d]: %w", i, err)
		}
		if err := set.Failure[i].Merge(o.Failure[i]); err != nil {
			return fmt.Errorf("fit: merge failure[%d]: %w", i, err)
		}
	}
	if o.Transfer != nil {
		if err := set.pooled(&set.Transfer).Merge(o.Transfer); err != nil {
			return fmt.Errorf("fit: merge transfer: %w", err)
		}
	}
	if o.FN != nil {
		if err := set.pooled(&set.FN).Merge(o.FN); err != nil {
			return fmt.Errorf("fit: merge fn: %w", err)
		}
	}
	return nil
}

// Footprint returns the set's memory footprint in bytes — constant in
// the number of events folded in.
func (set *StatsSet) Footprint() int {
	f := 0
	for i := range set.Service {
		f += set.Service[i].Footprint() + set.Failure[i].Footprint()
	}
	if set.Transfer != nil {
		f += set.Transfer.Footprint()
	}
	if set.FN != nil {
		f += set.FN.Footprint()
	}
	return f
}

// Spec fits every channel of the set and assembles a complete,
// validated modelspec document — Samples.Spec on the closed-form/sketch
// estimators; see Channels.Spec for the channel policy.
func (set *StatsSet) Spec(cfg Config) (*modelspec.SystemSpec, *Report, error) {
	return set.Channels().Spec(cfg)
}

// Channels returns the per-channel view of the set. A decoded set may
// carry null or absent channels; they read as empty.
func (set *StatsSet) Channels() Channels {
	view := func(s *Stats) Channel {
		if s == nil {
			return Sample{}
		}
		return s
	}
	ch := Channels{Servers: set.Servers, Transfer: view(set.Transfer), FN: view(set.FN)}
	for _, s := range set.Service {
		ch.Service = append(ch.Service, view(s))
	}
	for _, s := range set.Failure {
		ch.Failure = append(ch.Failure, view(s))
	}
	return ch
}

// Validate checks every channel of the set.
func (set *StatsSet) Validate() error {
	if set.Servers < 0 || len(set.Service) != len(set.Failure) || len(set.Service) < set.Servers {
		return fmt.Errorf("fit: stats set channel layout inconsistent")
	}
	check := func(name string, s *Stats) error {
		if s == nil {
			return nil
		}
		if err := s.Validate(); err != nil {
			return fmt.Errorf("fit: %s: %w", name, err)
		}
		return nil
	}
	for i := range set.Service {
		// Every covered server must have both channels: a decoded set
		// with a null entry would otherwise panic the fitters.
		if i < set.Servers && (set.Service[i] == nil || set.Failure[i] == nil) {
			return fmt.Errorf("fit: stats set with nil channel for server %d", i)
		}
		if err := check(fmt.Sprintf("service[%d]", i), set.Service[i]); err != nil {
			return err
		}
		if err := check(fmt.Sprintf("failure[%d]", i), set.Failure[i]); err != nil {
			return err
		}
	}
	if err := check("transfer", set.Transfer); err != nil {
		return err
	}
	return check("fn", set.FN)
}
