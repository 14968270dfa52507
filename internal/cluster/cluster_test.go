package cluster

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"dtr/internal/obs"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("Self missing: want error")
	}
	if _, err := New(Config{Self: "http://a"}); err == nil {
		t.Fatal("single member: want error")
	}
	if _, err := New(Config{Self: "http://a", Peers: []string{"http://a", ""}}); err == nil {
		t.Fatal("empty peer URL: want error")
	}
	c, err := New(Config{Self: "http://a", Peers: []string{"http://b"}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if len(c.Members()) != 2 {
		t.Fatalf("self not auto-added: members = %v", c.Members())
	}
	if p := c.Peers(); len(p) != 1 || p[0] != "http://b" {
		t.Fatalf("peers = %v", p)
	}
}

func TestStopWithoutStart(t *testing.T) {
	c, err := New(Config{Self: "http://a", Peers: []string{"http://b"}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { c.Stop(); c.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Stop hung without a prior Start")
	}
}

// TestProberEjectsAndRevives drives the health prober against a real
// peer that flips from ready to unready and back, checking ejection
// after failAfter consecutive failures and revival on one success.
func TestProberEjectsAndRevives(t *testing.T) {
	var ready atomic.Bool
	ready.Store(true)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			t.Errorf("probe hit %s, want /readyz", r.URL.Path)
		}
		if !ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	}))
	defer peer.Close()

	reg := obs.NewRegistry()
	c, err := New(Config{
		Self:          "http://self.invalid",
		Peers:         []string{peer.URL},
		ProbeInterval: 10 * time.Millisecond,
		Registry:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	waitFor := func(want bool, what string) {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			if c.Alive(peer.URL) == want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("peer never became %s", what)
	}

	waitFor(true, "alive")
	ready.Store(false)
	waitFor(false, "ejected")
	// With the only other member down, the live ring is self-only: every
	// key routes locally.
	if owner, local := c.Route("somekey"); !local {
		t.Fatalf("dead fleet should route locally, got owner %s", owner)
	}
	ready.Store(true)
	waitFor(true, "revived")
	snap := reg.Snapshot()
	if snap.Counters[obs.Name("dtr_cluster_ejections_total", "peer", peer.URL)] == 0 {
		t.Fatal("ejection not counted")
	}
	if snap.Counters[obs.Name("dtr_cluster_revivals_total", "peer", peer.URL)] == 0 {
		t.Fatal("revival not counted")
	}
}

// twoNode builds a probing-disabled cluster where `other` owns every
// key we pick (membership is just self + other, so any key not owned by
// self is owned by other).
func twoNode(t *testing.T, self, other string, hedge time.Duration) *Cluster {
	t.Helper()
	c, err := New(Config{
		Self:           self,
		Peers:          []string{other},
		ProbeInterval:  -1,
		ForwardTimeout: 2 * time.Second,
		HedgeDelay:     hedge,
		Registry:       obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// keyOwnedBy finds a key the ring assigns to member.
func keyOwnedBy(t *testing.T, c *Cluster, member string) string {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		k := "key-" + string(rune('a'+i%26)) + "-" + time.Duration(i).String()
		if c.Owner(k) == member {
			return k
		}
	}
	t.Fatalf("no key owned by %s", member)
	return ""
}

func TestForwardOwnerAnswers(t *testing.T) {
	var hop atomic.Value
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hop.Store(r.Header.Get(HopHeader))
		w.WriteHeader(http.StatusTeapot) // any HTTP status is authoritative
		_, _ = io.WriteString(w, `{"error":"teapot"}`)
	}))
	defer owner.Close()

	c := twoNode(t, "http://self.invalid", owner.URL, 0)
	key := keyOwnedBy(t, c, owner.URL)
	resp, err := c.Forward(context.Background(), nil, key, "/v1/optimize", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != http.StatusTeapot || resp.Peer != owner.URL {
		t.Fatalf("resp = %+v", resp)
	}
	if got := hop.Load(); got != "http://self.invalid" {
		t.Fatalf("hop header = %v", got)
	}
}

func TestForwardFailsWithoutSuccessor(t *testing.T) {
	// Two-member fleet, owner dead, no non-self successor: forwarding
	// must fail so the caller computes locally.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // refuse connections
	c := twoNode(t, "http://self.invalid", dead.URL, 0)
	key := keyOwnedBy(t, c, dead.URL)
	_, err := c.Forward(context.Background(), nil, key, "/v1/optimize", []byte(`{}`))
	if !errors.Is(err, ErrForwardFailed) {
		t.Fatalf("err = %v, want ErrForwardFailed", err)
	}
	if c.reg.Snapshot().Counters["dtr_cluster_forward_failures_total"] == 0 {
		t.Fatal("forward failure not counted")
	}
}

func TestForwardRetriesSuccessor(t *testing.T) {
	// Three-member fleet: the owner refuses connections, the successor
	// answers. Forward must return the successor's answer.
	succ := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "from-successor")
	}))
	defer succ.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close()

	c, err := New(Config{
		Self:           "http://self.invalid",
		Peers:          []string{dead.URL, succ.URL},
		ProbeInterval:  -1,
		ForwardTimeout: 2 * time.Second,
		Registry:       obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	key := keyOwnedBy(t, c, dead.URL)
	resp, ferr := c.Forward(context.Background(), nil, key, "/v1/optimize", []byte(`{}`))
	if ferr != nil {
		t.Fatal(ferr)
	}
	if resp.Peer != succ.URL || string(resp.Body) != "from-successor" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestForwardHedges(t *testing.T) {
	// The owner hangs; with HedgeDelay set the successor is tried on the
	// timer and wins without waiting for the owner to time out.
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer slow.Close()
	defer close(release)
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "fast")
	}))
	defer fast.Close()

	reg := obs.NewRegistry()
	c, err := New(Config{
		Self:           "http://self.invalid",
		Peers:          []string{slow.URL, fast.URL},
		ProbeInterval:  -1,
		ForwardTimeout: 10 * time.Second,
		HedgeDelay:     20 * time.Millisecond,
		Registry:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	key := keyOwnedBy(t, c, slow.URL)
	t0 := time.Now()
	resp, ferr := c.Forward(context.Background(), nil, key, "/v1/optimize", []byte(`{}`))
	if ferr != nil {
		t.Fatal(ferr)
	}
	if resp.Peer != fast.URL || string(resp.Body) != "fast" {
		t.Fatalf("resp = %+v", resp)
	}
	if el := time.Since(t0); el > 5*time.Second {
		t.Fatalf("hedge took %s — successor was not hedged", el)
	}
	if reg.Snapshot().Counters["dtr_cluster_hedges_total"] == 0 {
		t.Fatal("hedge not counted")
	}
}

func TestFetchWarm(t *testing.T) {
	var gotPeer atomic.Value
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/cache/warm" {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		gotPeer.Store(r.URL.Query().Get("peer"))
		_, _ = io.WriteString(w, `{"schema":"dtr.cachesnap.v1","entries":[]}`)
	}))
	defer peer.Close()

	c := twoNode(t, "http://self.invalid", peer.URL, 0)
	raw, err := c.FetchWarm(context.Background(), peer.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		t.Fatal("empty warm document")
	}
	if gotPeer.Load() != "http://self.invalid" {
		t.Fatalf("peer query param = %v", gotPeer.Load())
	}
	if _, err := c.FetchWarm(context.Background(), "http://127.0.0.1:1"); err == nil {
		t.Fatal("unreachable peer: want error")
	}
}
