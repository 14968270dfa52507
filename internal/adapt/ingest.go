package adapt

// The ingest-backed source: instead of tailing a raw trace file the
// controller polls a dtringest daemon for windowed sufficient
// statistics (dist/fit.StatsSet) and feeds them to the same bootstrap →
// drift → replan loop, which then runs on the closed-form/sketch
// estimators behind fit.Channel. Memory stays bounded on
// both sides of the hop: the daemon's ring of windows, the
// controller's single merged snapshot.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"

	"dtr/dist/fit"
	"dtr/internal/ingest"
)

// IngestSource polls a dtringest daemon for one tenant's windowed
// sufficient statistics — the bounded-memory replacement for tailing a
// raw trace file.
type IngestSource struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:9120".
	BaseURL string
	// Tenant names the statistics stream to poll.
	Tenant string
	// Client is the HTTP client (nil = http.DefaultClient).
	Client *http.Client
}

// Snapshot fetches GET /v1/snapshot?tenant= and validates the payload.
// When ctx carries a span, its W3C traceparent goes out on the request,
// so the daemon's request trace joins the controller's poll.
func (s *IngestSource) Snapshot(ctx context.Context) (*ingest.Snapshot, error) {
	if s.BaseURL == "" || s.Tenant == "" {
		return nil, fmt.Errorf("adapt: ingest source needs BaseURL and Tenant")
	}
	u := s.BaseURL + "/v1/snapshot?tenant=" + url.QueryEscape(s.Tenant)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, fmt.Errorf("adapt: %w", err)
	}
	code, data, err := roundTrip(ctx, s.Client, req, "snapshot_get", "tenant", s.Tenant)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		// %.200s: an error body is quoted only in part.
		return nil, fmt.Errorf("adapt: /v1/snapshot?tenant=%s: HTTP %d: %.200s", s.Tenant, code, data)
	}
	var snap ingest.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("adapt: decode snapshot: %w", err)
	}
	if err := snap.Validate(); err != nil {
		return nil, fmt.Errorf("adapt: %w", err)
	}
	return &snap, nil
}

// ObserveStats feeds one ingest snapshot's statistics through the
// bootstrap / drift logic. Unlike Observe, every call is a check
// boundary — the snapshot already is the whole window. Errors are
// advisory exactly as for Observe: the previous policy and baselines
// stand, and the caller keeps polling.
func (c *Controller) ObserveStats(ctx context.Context, set *fit.StatsSet) (*Decision, error) {
	if set == nil {
		return nil, fmt.Errorf("adapt: nil stats")
	}
	if err := set.Validate(); err != nil {
		return nil, fmt.Errorf("adapt: %w", err)
	}
	adaptSnapshots.Inc()
	return c.check(ctx, FitInput{Stats: set})
}

// RefitStats forces a fit-and-replan from a snapshot regardless of
// drift — the "-ingest ... -once" mode of cmd/dtradapt.
func (c *Controller) RefitStats(ctx context.Context, set *fit.StatsSet) (*Decision, error) {
	if set == nil || set.Servers == 0 {
		return nil, fmt.Errorf("adapt: no statistics observed")
	}
	if err := set.Validate(); err != nil {
		return nil, fmt.Errorf("adapt: %w", err)
	}
	adaptSnapshots.Inc()
	return c.refit(ctx, FitInput{Stats: set})
}
