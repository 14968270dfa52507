package obs

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
)

// requestRing is the /debug/requests buffer: the most recent completed
// traces plus the slowest ones seen so far, so a crawling tail-latency
// incident is debuggable even when the offending request is long gone
// from the recency window.
type requestRing struct {
	mu      sync.Mutex
	recent  []*TraceRecord // ring, capacity maxRecent
	next    int
	full    bool
	slowest []*TraceRecord // kept sorted by DurUs descending, ≤ maxSlowest

	maxRecent, maxSlowest int
}

func newRequestRing(maxRecent, maxSlowest int) *requestRing {
	return &requestRing{maxRecent: maxRecent, maxSlowest: maxSlowest}
}

// add records one completed trace.
func (r *requestRing) add(rec *TraceRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.recent) < r.maxRecent {
		r.recent = append(r.recent, rec)
	} else {
		r.recent[r.next] = rec
		r.next = (r.next + 1) % r.maxRecent
		r.full = true
	}
	if len(r.slowest) < r.maxSlowest {
		r.slowest = append(r.slowest, rec)
		sort.SliceStable(r.slowest, func(i, j int) bool { return r.slowest[i].DurUs > r.slowest[j].DurUs })
	} else if last := r.slowest[len(r.slowest)-1]; rec.DurUs > last.DurUs {
		r.slowest[len(r.slowest)-1] = rec
		sort.SliceStable(r.slowest, func(i, j int) bool { return r.slowest[i].DurUs > r.slowest[j].DurUs })
	}
}

// snapshot copies both buffers; recent is ordered newest-first.
func (r *requestRing) snapshot() (recent, slowest []*TraceRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.recent)
	recent = make([]*TraceRecord, 0, n)
	slowest = append([]*TraceRecord(nil), r.slowest...)
	if n == 0 {
		return recent, slowest
	}
	for i := 0; i < n; i++ {
		// Walk backwards from the newest entry (the one before next).
		idx := (r.next - 1 - i + 2*n) % n
		recent = append(recent, r.recent[idx])
	}
	return recent, slowest
}

// RequestsSnapshot is the /debug/requests document.
type RequestsSnapshot struct {
	// Recent lists completed traces newest-first; Slowest the
	// longest-duration traces seen, slowest first.
	Recent  []*TraceRecord `json:"recent"`
	Slowest []*TraceRecord `json:"slowest"`
}

// Requests returns the current ring contents (empty on the nil tracer).
func (t *Tracer) Requests() RequestsSnapshot {
	s := RequestsSnapshot{Recent: []*TraceRecord{}, Slowest: []*TraceRecord{}}
	if t == nil {
		return s
	}
	s.Recent, s.Slowest = t.ring.snapshot()
	return s
}

// handleRequests serves GET /debug/requests from the default tracer —
// resolved per request, so mounting order relative to SetTracer does
// not matter.
func handleRequests(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(DefaultTracer().Requests())
}
