package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"dtr/dist/fit"
	"dtr/internal/trace"
	"dtr/modelspec"
)

// FitRequest is the JSON body of POST /v1/fit: raw trace events plus
// the initial allocation to record, answered with a fitted, validated
// modelspec document and the per-channel fit report. This is the
// server-side half of the adaptation loop — a dtradapt controller (or
// any monitor) ships its observation window here and feeds the returned
// spec straight back into /v1/optimize.
type FitRequest struct {
	// Events is the captured trace window (the contents of a trace
	// JSONL file, as JSON values). A meta event is optional; server
	// indices imply the system size either way. Exactly one of Events
	// and Stats must be set.
	Events []trace.Event `json:"events,omitempty"`
	// Stats is the bounded-memory alternative to Events: windowed
	// sufficient statistics, as carried by a dtringest snapshot. The
	// fit runs on the closed-form/sketch paths (fit.StatsSet.Spec)
	// instead of the raw-sample MLEs.
	Stats *fit.StatsSet `json:"stats,omitempty"`
	// Queues is the initial allocation recorded in the fitted spec, one
	// entry per server.
	Queues []int `json:"queues"`
	// Families optionally restricts the candidate families (modelspec
	// type strings); empty means all fittable families.
	Families []string `json:"families,omitempty"`
	// MinObs overrides the minimum exact observations per fitted
	// channel (0 = the fit package default).
	MinObs int `json:"minObs,omitempty"`
	// TimeoutMS bounds how long this caller waits, like the planning
	// verbs.
	TimeoutMS int `json:"timeoutMs,omitempty"`
}

// FitResponse is the JSON answer of POST /v1/fit.
type FitResponse struct {
	Spec   *modelspec.SystemSpec `json:"spec"`
	Report *fit.Report           `json:"report"`
}

// maxFitEvents bounds the trace window one request may carry; the body
// size cap usually binds first, but an explicit ceiling keeps degenerate
// (tiny-event) payloads from monopolizing a fit slot.
const maxFitEvents = 1 << 20

// handleFit implements POST /v1/fit. Fits are not cached or coalesced —
// trace windows are one-shot by nature — but they do pass through the
// same admission control as the planning verbs so a burst of fit
// traffic cannot starve the solvers.
func (s *Service) handleFit(w http.ResponseWriter, r *http.Request) int {
	var req FitRequest
	if code := s.decode(w, r, &req); code != 0 {
		return code
	}
	if len(req.Events) == 0 && req.Stats == nil {
		return s.fail(w, http.StatusBadRequest, "events or stats: required")
	}
	if len(req.Events) > 0 && req.Stats != nil {
		return s.fail(w, http.StatusBadRequest, "events and stats are mutually exclusive")
	}
	if len(req.Events) > maxFitEvents {
		return s.fail(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("events: at most %d per request", maxFitEvents))
	}
	if req.Stats != nil {
		if err := req.Stats.Validate(); err != nil {
			return s.fail(w, http.StatusBadRequest, err.Error())
		}
	}
	if len(req.Queues) == 0 {
		return s.fail(w, http.StatusBadRequest, "queues: required")
	}
	if req.MinObs < 0 {
		return s.fail(w, http.StatusBadRequest, "minObs: must be non-negative")
	}
	if req.TimeoutMS < 0 {
		return s.fail(w, http.StatusBadRequest, "timeoutMs: must be non-negative")
	}
	fams, err := fit.ParseFamilies(req.Families)
	if err != nil {
		return s.fail(w, http.StatusBadRequest, err.Error())
	}
	// Events lifted from a trace file carry their version; ones
	// assembled by an API client often omit it. Absent means current.
	for i := range req.Events {
		if req.Events[i].V == 0 {
			req.Events[i].V = trace.Version
		}
	}

	wait := s.cfg.Timeout
	if t := time.Duration(req.TimeoutMS) * time.Millisecond; t > 0 && t < wait {
		wait = t
	}
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	if err := s.admit.acquire(ctx); err != nil {
		if errors.Is(err, errQueueFull) {
			return s.fail(w, http.StatusTooManyRequests, "over capacity")
		}
		return s.fail(w, http.StatusGatewayTimeout, "timed out waiting for an execution slot")
	}
	defer s.admit.release()

	fitCfg := fit.Config{Queues: req.Queues, Families: fams, MinObs: req.MinObs}
	var spec *modelspec.SystemSpec
	var report *fit.Report
	if req.Stats != nil {
		spec, report, err = req.Stats.Spec(fitCfg)
	} else {
		spec, report, err = fit.Spec(req.Events, fitCfg)
	}
	if err != nil {
		// Every fit.Spec failure is input-determined: bad events, queue
		// count mismatch, or a sample no family admits.
		return s.fail(w, http.StatusBadRequest, err.Error())
	}
	return s.writeJSON(w, FitResponse{Spec: spec, Report: report})
}

// writeJSON sends a 200 with the JSON encoding of v.
func (s *Service) writeJSON(w http.ResponseWriter, v any) int {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		// The status line is gone; nothing to do but record it.
		s.reg.Counter("dtr_serve_encode_errors_total").Add(1)
	}
	return http.StatusOK
}
