package cluster

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"dtr/internal/obs"
)

// HopHeader marks a request that already crossed one cluster hop. A
// replica receiving it must answer locally — never re-forward — so
// divergent membership views (a peer mid-ejection, a stale ring) can
// cost one extra local computation but can never form a routing loop.
const HopHeader = "X-DTR-Cluster-Hop"

// Config parameterizes a cluster node. Self and Peers are required; the
// zero value of everything else has a production default.
type Config struct {
	// Self is this replica's own base URL as it appears in Peers
	// (e.g. "http://10.0.0.3:8080"). Added to Peers when absent.
	Self string
	// Peers is the static fleet membership: every replica's base URL.
	Peers []string
	// ProbeInterval is the peer health-probe period (0 = 2s; negative
	// disables probing — every peer is assumed alive). One /readyz probe
	// is bounded by min(interval, 1s).
	ProbeInterval time.Duration
	// ForwardTimeout bounds one forwarded request attempt (0 = 30s).
	ForwardTimeout time.Duration
	// HedgeDelay launches the successor attempt this long after the
	// owner attempt started, without waiting for it to fail (0 =
	// disabled: the successor is tried only after an owner failure).
	HedgeDelay time.Duration
	// Registry receives the cluster metrics (nil = metrics off).
	Registry *obs.Registry
}

// Cluster is one replica's view of the fleet: the static membership
// ring, the live ring with dead peers ejected, and the forwarding
// client. Create with New; Start launches the health prober.
type Cluster struct {
	cfg    Config
	self   string
	full   *Ring        // static membership: canonical ownership for warm fill
	client *http.Client // forwards and probes; each attempt's timeout is its context's
	reg    *obs.Registry

	mu    sync.RWMutex
	down  map[string]bool
	fails map[string]int
	live  *Ring // current routing ring: dead peers ejected

	started  bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New validates cfg and builds the cluster state. The ring initially
// considers every peer alive; Start begins probing.
func New(cfg Config) (*Cluster, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Self required")
	}
	peers := append([]string(nil), cfg.Peers...)
	found := false
	for _, p := range peers {
		if p == cfg.Self {
			found = true
		}
		if p == "" {
			return nil, fmt.Errorf("cluster: empty peer URL")
		}
	}
	if !found {
		peers = append(peers, cfg.Self)
	}
	if len(peers) < 2 {
		return nil, fmt.Errorf("cluster: need at least 2 members (self included), got %d", len(peers))
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = 30 * time.Second
	}
	c := &Cluster{
		cfg:    cfg,
		self:   cfg.Self,
		full:   NewRing(peers),
		client: &http.Client{},
		reg:    cfg.Registry,
		down:   map[string]bool{},
		fails:  map[string]int{},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	c.live = c.full
	c.publishRingGauges()
	return c, nil
}

// Members returns the full static membership, sorted.
func (c *Cluster) Members() []string { return c.full.Members() }

// Peers returns every member except self, sorted.
func (c *Cluster) Peers() []string {
	var out []string
	for _, m := range c.full.Members() {
		if m != c.self {
			out = append(out, m)
		}
	}
	return out
}

// Owner returns the live-ring owner of key: the replica this request
// should be forwarded to ("" only on a fully dead fleet, which routing
// treats as "compute locally").
func (c *Cluster) Owner(key string) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.live.Owner(key)
}

// OwnerStatic returns key's owner on the full membership ring,
// ignoring liveness — the configured ownership the warm-fill endpoint
// filters by, so a dead-but-restarting peer still pulls its own keys.
func (c *Cluster) OwnerStatic(key string) string {
	return c.full.Owner(key)
}

// successor returns the live replica that would own key if owner left
// the ring, excluding self ("" when none exists — e.g. a two-member
// fleet whose other member is the failed owner).
func (c *Cluster) successor(key, owner string) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, s := range c.live.Successors(key, c.live.Len()) {
		if s != owner && s != c.self {
			return s
		}
	}
	return ""
}

// Alive reports whether peer currently passes health probes.
func (c *Cluster) Alive(peer string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return !c.down[peer]
}

// failAfter ejects a peer after this many consecutive probe failures;
// one successful probe re-admits it.
const failAfter = 3

// setAlive records one probe outcome and rebuilds the live ring on a
// state transition. Exported indirectly through the prober; tests use
// it to force membership changes.
func (c *Cluster) setAlive(peer string, ok bool) {
	c.mu.Lock()
	changed := false
	if ok {
		c.fails[peer] = 0
		if c.down[peer] {
			delete(c.down, peer)
			changed = true
			c.reg.Counter(obs.Name("dtr_cluster_revivals_total", "peer", peer)).Add(1)
		}
	} else {
		c.fails[peer]++
		if !c.down[peer] && c.fails[peer] >= failAfter {
			c.down[peer] = true
			changed = true
			c.reg.Counter(obs.Name("dtr_cluster_ejections_total", "peer", peer)).Add(1)
		}
	}
	if changed {
		var alive []string
		for _, m := range c.full.Members() {
			if !c.down[m] {
				alive = append(alive, m)
			}
		}
		c.live = NewRing(alive)
	}
	c.mu.Unlock()
	if changed {
		c.publishRingGauges()
		obs.Logger().Info("cluster membership changed", "peer", peer, "alive", ok)
	}
}

// publishRingGauges exports fleet size, live count and per-member
// hash-space ownership.
func (c *Cluster) publishRingGauges() {
	c.mu.RLock()
	live := c.live
	dead := len(c.down)
	c.mu.RUnlock()
	c.reg.Gauge("dtr_cluster_peers_total").Set(float64(c.full.Len()))
	c.reg.Gauge("dtr_cluster_peers_alive").Set(float64(c.full.Len() - dead))
	for _, m := range c.full.Members() {
		c.reg.Gauge(obs.Name("dtr_cluster_ring_share", "peer", m)).Set(live.Share(m))
	}
}

// Start launches the background health prober (no-op when probing is
// disabled). Stop it with Stop.
func (c *Cluster) Start() {
	if c.cfg.ProbeInterval <= 0 {
		return
	}
	c.started = true
	go c.probeLoop()
}

// Stop terminates the prober and waits for it to exit. Idempotent; safe
// without a prior Start.
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	if c.started {
		<-c.done
	}
}

// sortedPeers returns the probe targets in a stable order.
func (c *Cluster) sortedPeers() []string {
	out := c.Peers()
	sort.Strings(out)
	return out
}
