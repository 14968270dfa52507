// Package ingest is the streaming observation tier: one daemon
// (cmd/dtringest) absorbing delay/failure/transfer observations from
// many emitters — simulators, testbeds, production probes — over UDP
// and HTTP, keyed by tenant, and folding them into *windowed sufficient
// statistics* (dist/fit.StatsSet) instead of retaining raw events.
//
// The design follows the statsd-daemon pattern named in the ROADMAP:
// a compact line protocol into buffered aggregation, periodic
// ring-window rotation, and self-monitoring. Memory is
// O(tenants × channels × windows × buckets) — independent of event
// volume — because every channel is a fixed-geometry sketch plus a
// handful of exact accumulators (see dist/fit/stats.go). Snapshots
// merge the live windows into one StatsSet that dist/fit turns into a
// §III-B censored-MLE refit, closing the loop as:
// many emitters → dtringest → per-tenant refit → replan.
package ingest

import (
	"cmp"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"dtr/dist/fit"
	"dtr/internal/trace"
)

// Defaults for Config's zero values.
const (
	DefaultWindow      = time.Minute
	DefaultWindows     = 5
	DefaultMaxChannels = 4096
	DefaultMaxServers  = 256
	DefaultMaxTenants  = 256
)

// SnapshotSchema names the snapshot wire format.
const SnapshotSchema = "dtr.ingest.v1"

// Config sizes an Aggregator. The zero value is usable.
type Config struct {
	// Window is one ring slot's span (0 = 1m).
	Window time.Duration
	// Windows is the ring length: how many consecutive windows stay
	// live; a snapshot covers Windows × Window of history (0 = 5).
	Windows int
	// Buckets is the sketch resolution per channel
	// (0 = fit.DefaultBuckets).
	Buckets int
	// MaxChannels caps the total number of live (tenant, channel) pairs;
	// observations that would create a channel beyond the cap are
	// dropped and counted (0 = 4096).
	MaxChannels int
	// MaxServers caps the server indices an event may name (0 = 256).
	// StatsSet.Grow allocates sketches for every index up to the highest
	// seen, so without a cap a single "service.999999999" line would
	// turn into a multi-gigabyte allocation.
	MaxServers int
	// MaxTenants caps the number of live tenants; observations for a new
	// tenant beyond the cap are dropped and counted (0 = 256). Evicted
	// tenants (see Sweep) free their slot.
	MaxTenants int
	// Now supplies the clock (nil = time.Now); tests inject a fake.
	Now func() time.Time
}

// chanMeta is one channel's liveness bookkeeping.
type chanMeta struct {
	events uint64
	last   time.Time
}

// tenantState is one tenant's ring of windowed statistics.
type tenantState struct {
	// slots is the window ring; slots[cur] receives new observations.
	// Stale slots are nil until an observation lands in them.
	slots []*fit.StatsSet
	// cur indexes the active slot; slotStart is its window's start,
	// quantized to the window length.
	cur       int
	slotStart time.Time
	channels  map[chanKey]*chanMeta
	events    uint64
	last      time.Time
}

// Aggregator folds per-tenant observation streams into ring-buffered
// windowed sufficient statistics. Safe for concurrent use.
type Aggregator struct {
	cfg Config

	mu          sync.Mutex
	tenants     map[string]*tenantState
	numChannels int
}

// New builds an Aggregator, applying Config defaults.
func New(cfg Config) *Aggregator {
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.Windows <= 0 {
		cfg.Windows = DefaultWindows
	}
	if cfg.Buckets <= 0 {
		cfg.Buckets = fit.DefaultBuckets
	}
	if cfg.MaxChannels <= 0 {
		cfg.MaxChannels = DefaultMaxChannels
	}
	if cfg.MaxServers <= 0 {
		cfg.MaxServers = DefaultMaxServers
	}
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = DefaultMaxTenants
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Aggregator{cfg: cfg, tenants: make(map[string]*tenantState)}
}

// chanKey is the pooled channel an event lands in: per-server service
// and failure streams, the pooled transfer and fn channels (server −1).
type chanKey struct {
	kind   string
	server int
}

// Capacity-drop sentinels: the observation was structurally fine but
// folding it in would exceed a configured bound, so it is dropped and
// the aggregator is left exactly as it was.
var (
	// ErrChannelLimit reports an observation dropped at the channel cap.
	ErrChannelLimit = fmt.Errorf("ingest: channel limit reached")
	// ErrServerLimit reports an observation naming a server index (or a
	// meta event claiming a system size) beyond the configured cap.
	ErrServerLimit = fmt.Errorf("ingest: server index limit exceeded")
	// ErrTenantLimit reports an observation dropped at the tenant cap.
	ErrTenantLimit = fmt.Errorf("ingest: tenant limit reached")
)

// checkServers defaults ev's version and bounds the server indices it
// may name — the ingest-side analogue of the trace reader's checkRange,
// against the configured cap. Without it, StatsSet.Grow would allocate
// sketches for every index up to the one named. An invalid event is
// malformed, not dropped. It reads only cfg: callers run it unlocked.
func (a *Aggregator) checkServers(ev *trace.Event) error {
	if ev.V == 0 {
		ev.V = trace.Version
	}
	switch n := a.cfg.MaxServers; ev.Kind {
	case trace.KindMeta:
		if ev.Servers > n {
			return cmp.Or(ev.Validate(), fmt.Errorf("%w: meta event for %d servers (max %d)", ErrServerLimit, ev.Servers, n))
		}
	case trace.KindService, trace.KindFailure:
		if ev.Server >= n {
			return cmp.Or(ev.Validate(), fmt.Errorf("%w: %s event for server %d (max index %d)", ErrServerLimit, ev.Kind, ev.Server, n-1))
		}
	case trace.KindTransfer, trace.KindFN:
		if ev.Src >= n || ev.Dst >= n {
			return cmp.Or(ev.Validate(), fmt.Errorf("%w: %s event %d→%d (max index %d)", ErrServerLimit, ev.Kind, ev.Src, ev.Dst, n-1))
		}
	}
	return nil
}

// Observe folds one event into tenant's active window. A rejected
// observation — validation failure, server index beyond MaxServers, or
// a ErrChannelLimit/ErrTenantLimit capacity drop — leaves the
// aggregator untouched: no tenant or channel state is created for an
// event that does not land.
func (a *Aggregator) Observe(tenant string, ev trace.Event) error {
	var t tally
	if t.first = a.checkServers(&ev); t.first == nil {
		fold(a, tenant, []trace.Event{ev}, a.cfg.Now(), &t)
	}
	return t.first
}

// tally is what a stretch of observations came to: how many landed, how
// many were refused at a capacity bound (drops) or as malformed, and the
// first refusal in line order.
type tally struct {
	accepted, drops, malformed int
	first                      error
}

func (t *tally) reject(err error) {
	if errors.Is(err, ErrChannelLimit) || errors.Is(err, ErrServerLimit) || errors.Is(err, ErrTenantLimit) {
		t.drops++
	} else {
		t.malformed++
	}
	if t.first == nil {
		t.first = err
	}
}

// fold lands evs, which passed checkServers, in order in tenant's active
// window as of now, under one lock and one tenant lookup, telling t what
// became of each, as Observe would one at a time. tenant is a string or
// bytes the caller may reuse: the lookup m[string(b)] copies nothing, and
// the name is copied once, into the map key, when a tenant is new.
func fold[S string | []byte](a *Aggregator, tenant S, evs []trace.Event, now time.Time, t *tally) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ts := a.tenants[string(tenant)]
	if ts != nil {
		a.advance(ts, now)
	}
	fresh, landed := ts == nil, t.accepted
	for i := range evs {
		if err := a.land(&ts, &evs[i], now); err != nil {
			t.reject(err)
		} else {
			t.accepted++
		}
	}
	if fresh && t.accepted > landed {
		a.tenants[string(tenant)] = ts
	}
}

// land folds one event into the tenant state *tsp, which it creates if
// *tsp is nil, and changes nothing else if it refuses the event. Called
// with the lock held.
func (a *Aggregator) land(tsp **tenantState, ev *trace.Event, now time.Time) error {
	// AddEvent validates the event as it lands, once. A capacity refusal
	// ahead of that yields to the event being invalid: malformed, not dropped.
	drop := func(limit error) error { return cmp.Or(ev.Validate(), limit) }
	ts := *tsp
	if ts == nil {
		if len(a.tenants) >= a.cfg.MaxTenants {
			return drop(ErrTenantLimit)
		}
		ts = &tenantState{
			slots:     make([]*fit.StatsSet, a.cfg.Windows),
			slotStart: now.Truncate(a.cfg.Window),
			channels:  make(map[chanKey]*chanMeta),
		}
		*tsp = ts
	}
	key := chanKey{ev.Kind, -1}
	if ev.Kind == trace.KindService || ev.Kind == trace.KindFailure {
		key.server = ev.Server
	}
	cm := ts.channels[key]
	if cm == nil && ev.Kind != trace.KindMeta && a.numChannels >= a.cfg.MaxChannels {
		return drop(ErrChannelLimit)
	}
	slot := ts.slots[ts.cur]
	if slot == nil {
		slot = fit.NewStatsSet(0, a.cfg.Buckets)
	}
	if err := slot.AddEvent(*ev); err != nil {
		return err
	}
	// The observation landed: commit the bookkeeping.
	ts.slots[ts.cur] = slot
	if cm == nil && ev.Kind != trace.KindMeta {
		cm = &chanMeta{}
		ts.channels[key] = cm
		a.numChannels++
	}
	if cm != nil {
		cm.events++
		cm.last = now
	}
	ts.events++
	ts.last = now
	return nil
}

// advance rotates the ring so ts.slotStart covers now, clearing every
// slot whose window has fully expired. Called with the lock held.
func (a *Aggregator) advance(ts *tenantState, now time.Time) {
	steps := int(now.Sub(ts.slotStart) / a.cfg.Window)
	if steps <= 0 {
		return
	}
	if steps >= a.cfg.Windows {
		// Idle longer than the whole ring: everything expired.
		for i := range ts.slots {
			ts.slots[i] = nil
		}
		ts.cur = 0
		ts.slotStart = now.Truncate(a.cfg.Window)
		return
	}
	for i := 0; i < steps; i++ {
		ts.cur = (ts.cur + 1) % a.cfg.Windows
		ts.slots[ts.cur] = nil
		ts.slotStart = ts.slotStart.Add(a.cfg.Window)
	}
}

// ChannelInfo is one channel's liveness entry in a snapshot.
type ChannelInfo struct {
	Channel string `json:"channel"`
	Events  uint64 `json:"events"`
	// AgeSeconds is the time since the channel's last observation.
	AgeSeconds float64 `json:"ageSeconds"`
}

// Snapshot is the wire format of one tenant's live statistics: the
// merge of every ring window, ready for fit.StatsSet.Spec.
type Snapshot struct {
	V             int           `json:"v"`
	Schema        string        `json:"schema"`
	Tenant        string        `json:"tenant"`
	WindowSeconds float64       `json:"windowSeconds"`
	Windows       int           `json:"windows"`
	Events        uint64        `json:"events"`
	Stats         *fit.StatsSet `json:"stats"`
	Channels      []ChannelInfo `json:"channels,omitempty"`
}

// Validate checks a decoded snapshot.
func (s *Snapshot) Validate() error {
	if s.Schema != SnapshotSchema {
		return fmt.Errorf("ingest: unknown snapshot schema %q (want %q)", s.Schema, SnapshotSchema)
	}
	if s.Stats == nil {
		return fmt.Errorf("ingest: snapshot without stats")
	}
	return s.Stats.Validate()
}

// ErrUnknownTenant reports a snapshot request for a tenant the
// aggregator has never seen.
var ErrUnknownTenant = fmt.Errorf("ingest: unknown tenant")

// Snapshot merges tenant's live windows into one StatsSet and returns
// it with the per-channel liveness catalogue.
func (a *Aggregator) Snapshot(tenant string) (*Snapshot, error) {
	now := a.cfg.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	ts := a.tenants[tenant]
	if ts == nil {
		return nil, fmt.Errorf("%w %q", ErrUnknownTenant, tenant)
	}
	a.advance(ts, now)
	merged := fit.NewStatsSet(0, a.cfg.Buckets)
	for _, slot := range ts.slots {
		if slot == nil {
			continue
		}
		if err := merged.Merge(slot); err != nil {
			return nil, fmt.Errorf("ingest: merge windows: %w", err)
		}
	}
	snap := &Snapshot{
		V: 1, Schema: SnapshotSchema, Tenant: tenant,
		WindowSeconds: a.cfg.Window.Seconds(), Windows: a.cfg.Windows,
		Events: ts.events, Stats: merged,
	}
	for key, cm := range ts.channels {
		name := key.kind
		if key.server >= 0 {
			name += "." + strconv.Itoa(key.server)
		}
		snap.Channels = append(snap.Channels, ChannelInfo{
			Channel: name, Events: cm.events, AgeSeconds: now.Sub(cm.last).Seconds(),
		})
	}
	sort.Slice(snap.Channels, func(i, j int) bool {
		return snap.Channels[i].Channel < snap.Channels[j].Channel
	})
	return snap, nil
}

// Tenants lists the live tenants, sorted.
func (a *Aggregator) Tenants() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.tenants))
	for t := range a.tenants {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// SweepStats is what one maintenance sweep observed.
type SweepStats struct {
	Tenants  int
	Channels int
	// Stale counts channels whose last observation is older than the
	// ring span (they still hold windows but receive nothing).
	Stale int
	// Evicted counts tenants dropped for being idle past twice the ring
	// span.
	Evicted int
}

// Sweep performs one maintenance pass: counts stale channels and evicts
// tenants idle longer than twice the ring span, releasing their memory.
// The daemon runs this on a ticker and exports the results as gauges.
func (a *Aggregator) Sweep() SweepStats {
	now := a.cfg.Now()
	span := a.cfg.Window * time.Duration(a.cfg.Windows)
	a.mu.Lock()
	defer a.mu.Unlock()
	var st SweepStats
	for name, ts := range a.tenants {
		if now.Sub(ts.last) > 2*span {
			a.numChannels -= len(ts.channels)
			delete(a.tenants, name)
			st.Evicted++
			continue
		}
		for _, cm := range ts.channels {
			if now.Sub(cm.last) > span {
				st.Stale++
			}
		}
		st.Channels += len(ts.channels)
	}
	st.Tenants = len(a.tenants)
	return st
}

// Footprint returns the aggregator's statistics memory footprint in
// bytes: the sum of every live window's StatsSet footprint. It is the
// quantity the bounded-memory test locks — a function of
// channels × windows × buckets, never of how many events arrived.
func (a *Aggregator) Footprint() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	f := 0
	for _, ts := range a.tenants {
		for _, slot := range ts.slots {
			if slot != nil {
				f += slot.Footprint()
			}
		}
	}
	return f
}
