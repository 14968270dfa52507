package cluster

import (
	"context"
	"io"
	"net/http"
	"sync"
	"time"

	"dtr/internal/obs"
)

// probeLoop drives periodic /readyz probes against every peer until
// Stop. A peer is healthy when its readiness probe answers 200 — a
// warming or draining replica (503) is deliberately treated as down so
// the ring never routes to a cold cache or a terminating listener.
func (c *Cluster) probeLoop() {
	defer close(c.done)
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	c.probeAll()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.probeAll()
		}
	}
}

// probeAll probes every peer concurrently and records the outcomes.
func (c *Cluster) probeAll() {
	var wg sync.WaitGroup
	for _, peer := range c.sortedPeers() {
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			ok := c.probe(peer)
			if !ok {
				c.reg.Counter(obs.Name("dtr_cluster_probe_failures_total", "peer", peer)).Add(1)
			}
			c.setAlive(peer, ok)
		}(peer)
	}
	wg.Wait()
}

// probe issues one readiness check against peer, bounded by
// min(interval, 1s).
func (c *Cluster) probe(peer string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), min(c.cfg.ProbeInterval, time.Second))
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
