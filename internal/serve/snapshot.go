package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"

	"dtr/internal/obs"
	"dtr/modelspec"
)

// SnapshotSchema identifies the cache snapshot document format. The
// format is append-only versioned: a reader rejects documents whose
// schema it does not know instead of guessing.
const SnapshotSchema = "dtr.cachesnap.v1"

// CacheSnapshot is the dtr.cachesnap.v1 document: the serialized result
// cache, used both for warm restarts (written to disk on drain, reloaded
// on boot) and peer cache fill (served on /v1/cache/warm). Entries are
// ordered least recently used first so re-inserting in order reproduces
// the recency order.
type CacheSnapshot struct {
	Schema  string          `json:"schema"`
	Entries []SnapshotEntry `json:"entries"`
}

// SnapshotEntry is one cached result with the canonical request behind
// it. Key is re-derived from (spec, verb, opts) on load and the entry is
// dropped on mismatch, so a corrupt or hand-edited snapshot can never
// poison the cache with a body the fingerprint does not vouch for. Body
// round-trips base64 and is restored byte-identical.
type SnapshotEntry struct {
	Key  string          `json:"key"`
	Verb string          `json:"verb"`
	Spec json.RawMessage `json:"spec"`
	Opts json.RawMessage `json:"opts"`
	Body []byte          `json:"body"`
}

// SnapshotCache serializes the current result cache. Entries missing
// their canonical request (cached before this format existed — possible
// only mid-upgrade) are skipped: they could not be re-validated on load.
func (s *Service) SnapshotCache() *CacheSnapshot {
	snap := &CacheSnapshot{Schema: SnapshotSchema}
	for _, e := range s.cache.Entries() {
		if e.verb == "" || len(e.spec) == 0 {
			continue
		}
		snap.Entries = append(snap.Entries, SnapshotEntry{
			Key: e.key, Verb: e.verb, Spec: e.spec, Opts: e.opts, Body: e.body,
		})
	}
	return snap
}

// LoadSnapshot inserts snap's entries into the result cache, oldest
// first. Every entry's fingerprint is recomputed from its canonical
// request and compared to the stored key; mismatched, malformed or
// wrong-schema entries are skipped, never trusted. Returns the counts.
func (s *Service) LoadSnapshot(snap *CacheSnapshot) (loaded, skipped int) {
	if snap == nil || snap.Schema != SnapshotSchema {
		return 0, 0
	}
	for _, e := range snap.Entries {
		if !s.validEntry(&e) {
			skipped++
			continue
		}
		s.cachePut(e.Key, e.Body, e.Verb, e.Spec, e.Opts)
		loaded++
	}
	s.reg.Counter("dtr_serve_snapshot_loaded_total").Add(uint64(loaded))
	s.reg.Counter("dtr_serve_snapshot_skipped_total").Add(uint64(skipped))
	return loaded, skipped
}

// validEntry re-derives e's fingerprint from its canonical request.
func (s *Service) validEntry(e *SnapshotEntry) bool {
	if e.Key == "" || e.Verb == "" || len(e.Spec) == 0 || len(e.Body) == 0 {
		return false
	}
	spec, err := modelspec.Decode(e.Spec)
	if err != nil {
		return false
	}
	key, err := spec.Fingerprint([]byte(e.Verb), e.Opts)
	if err != nil {
		return false
	}
	return key == e.Key
}

// WriteCacheSnapshot atomically writes the current cache to path, mode
// 0600, for reload by LoadCacheSnapshotFile on the next boot. An empty
// cache still writes a valid (empty) document.
func (s *Service) WriteCacheSnapshot(path string) error {
	b, err := json.Marshal(s.SnapshotCache())
	if err != nil {
		return fmt.Errorf("serve: encode snapshot: %w", err)
	}
	return obs.WriteFileAtomic(path, append(b, '\n'), 0o600)
}

// LoadCacheSnapshotFile loads a snapshot written by WriteCacheSnapshot.
// A missing file is a clean no-op (first boot); a present but invalid
// file is an error.
func (s *Service) LoadCacheSnapshotFile(path string) (loaded int, err error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var snap CacheSnapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		return 0, fmt.Errorf("serve: decode snapshot %s: %w", path, err)
	}
	if snap.Schema != SnapshotSchema {
		return 0, fmt.Errorf("serve: snapshot %s: unknown schema %q (want %s)", path, snap.Schema, SnapshotSchema)
	}
	loaded, _ = s.LoadSnapshot(&snap)
	return loaded, nil
}

// WarmFromPeers pulls this replica's owned cache entries from every
// fleet peer's /v1/cache/warm endpoint and loads whatever validates.
// Unreachable peers are skipped — warming is best-effort; the worst
// outcome is a cold cache, never a failed boot. Returns entries loaded.
func (s *Service) WarmFromPeers(ctx context.Context) int {
	if s.cluster == nil {
		return 0
	}
	total := 0
	for _, peer := range s.cluster.Peers() {
		raw, err := s.cluster.FetchWarm(ctx, peer)
		if err != nil {
			continue
		}
		var snap CacheSnapshot
		if json.Unmarshal(raw, &snap) != nil {
			continue
		}
		loaded, _ := s.LoadSnapshot(&snap)
		total += loaded
	}
	s.reg.Counter("dtr_serve_warm_pulled_total").Add(uint64(total))
	return total
}

// handleWarm serves GET /v1/cache/warm: the cached entries owned (on
// the static membership ring) by the requesting peer, as a
// dtr.cachesnap.v1 document. Without a peer parameter — or outside
// cluster mode — the full cache is returned. The receiver re-validates
// every fingerprint, so this endpoint never needs to be trusted.
func (s *Service) handleWarm(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	peer := r.URL.Query().Get("peer")
	snap := s.SnapshotCache()
	if peer != "" && s.cluster != nil {
		owned := snap.Entries[:0]
		for _, e := range snap.Entries {
			if s.cluster.OwnerStatic(e.Key) == peer {
				owned = append(owned, e)
			}
		}
		snap.Entries = owned
	}
	s.reg.Counter("dtr_serve_warm_served_total").Add(1)
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	_ = enc.Encode(snap)
}
