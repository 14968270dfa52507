// Package trace defines the reproduction's measurement substrate: a
// versioned JSONL event log of the raw delay observations a running
// system produces — service completions, group and failure-notice
// transfer latencies, server failures — including *right-censored*
// observations (a task still in service when the capture ends, a server
// still alive at capture time), whose values are lower bounds rather
// than realized durations.
//
// The paper's testbed validation (§III-B) begins exactly here: measured
// delay histograms are fitted to candidate laws (Pareto services,
// shifted-gamma transfers, exponential failures) before any policy is
// solved. Writers are wired into internal/testbed and internal/sim;
// dist/fit consumes the events to re-estimate a modelspec document, and
// internal/adapt closes the loop by re-solving the DTR policy from the
// refreshed fit.
//
// The format is line-delimited JSON (one Event per line), stable under
// the schema version below; see DESIGN.md §"Trace schema" for the spec.
package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// Version is the current trace schema version. Readers accept any
// version in [1, Version]; writers always stamp Version.
const Version = 1

// Event kinds. A trace may interleave kinds freely.
const (
	// KindMeta is an optional header describing the capture (server
	// count, source). Fitters ignore it; validators use it to bound
	// server indices when present.
	KindMeta = "meta"
	// KindService is one task's service duration at Server.
	KindService = "service"
	// KindTransfer is one task-group transfer of Tasks tasks Src→Dst.
	KindTransfer = "transfer"
	// KindFN is one failure-notice packet transfer Src→Dst.
	KindFN = "fn"
	// KindFailure is a server's time-to-failure since it came up.
	KindFailure = "failure"
)

// Event is one observation. Value is a duration in model time units; if
// Censored is set, the underlying random time exceeded Value and the
// capture ended first (right-censoring), so Value is a lower bound.
type Event struct {
	V    int    `json:"v"`
	Kind string `json:"kind"`
	// Rep is the realization (replication) index the observation came
	// from, so per-realization streams can be separated downstream.
	Rep int `json:"rep,omitempty"`
	// T is the model-time instant the observation was recorded at,
	// within its realization.
	T float64 `json:"t,omitempty"`
	// Server identifies the observed server (service, failure).
	Server int `json:"server,omitempty"`
	// Src, Dst identify the endpoints of a transfer or fn event.
	Src int `json:"src,omitempty"`
	Dst int `json:"dst,omitempty"`
	// Tasks is the group size of a transfer event (≥ 1).
	Tasks int `json:"tasks,omitempty"`
	// Value is the observed duration (or its lower bound if Censored).
	Value    float64 `json:"value"`
	Censored bool    `json:"censored,omitempty"`
	// Servers and Source are meta-event fields: the system size and the
	// capture origin ("testbed", "sim", ...).
	Servers int    `json:"servers,omitempty"`
	Source  string `json:"source,omitempty"`
}

// Validate checks one event for structural sanity: known kind, valid
// version, finite non-negative value, in-range indices. It does not
// require a meta event; server indices are only bounded when the caller
// knows the system size (see Reader.Servers).
func (e *Event) Validate() error {
	if e.V < 1 || e.V > Version {
		return fmt.Errorf("trace: unsupported schema version %d (reader supports 1..%d)", e.V, Version)
	}
	switch e.Kind {
	case KindMeta:
		if e.Servers < 0 {
			return fmt.Errorf("trace: meta event with negative server count %d", e.Servers)
		}
		return nil
	case KindService, KindFailure:
		if e.Server < 0 {
			return fmt.Errorf("trace: %s event with negative server index %d", e.Kind, e.Server)
		}
	case KindTransfer:
		if e.Tasks < 1 {
			return fmt.Errorf("trace: transfer event needs tasks >= 1, got %d", e.Tasks)
		}
		fallthrough
	case KindFN:
		if e.Src < 0 || e.Dst < 0 {
			return fmt.Errorf("trace: %s event with negative endpoint (src=%d dst=%d)", e.Kind, e.Src, e.Dst)
		}
		if e.Src == e.Dst {
			return fmt.Errorf("trace: %s event with src == dst == %d", e.Kind, e.Src)
		}
	case "":
		return errors.New("trace: event kind missing")
	default:
		return fmt.Errorf("trace: unknown event kind %q", e.Kind)
	}
	if math.IsNaN(e.Value) || math.IsInf(e.Value, 0) || e.Value < 0 {
		return fmt.Errorf("trace: %s event needs a finite non-negative value, got %g", e.Kind, e.Value)
	}
	if math.IsNaN(e.T) || math.IsInf(e.T, 0) || e.T < 0 {
		return fmt.Errorf("trace: %s event needs a finite non-negative timestamp, got %g", e.Kind, e.T)
	}
	if e.Rep < 0 {
		return fmt.Errorf("trace: %s event with negative realization index %d", e.Kind, e.Rep)
	}
	return nil
}

// Writer appends events to an underlying io.Writer as JSONL. It is safe
// for concurrent use: the testbed's server goroutines and the
// simulator's replication workers share one Writer.
type Writer struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewWriter returns a Writer appending to w. Call Flush (or Close on
// the underlying file) when done; events are buffered.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{bw: bw, enc: json.NewEncoder(bw)}
}

// Write validates and appends one event, stamping the schema version.
// After the first error every subsequent Write returns it (sticky), so
// hot paths can ignore individual results and check Flush once.
func (w *Writer) Write(ev Event) error {
	ev.V = Version
	if err := ev.Validate(); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if err := w.enc.Encode(&ev); err != nil {
		w.err = fmt.Errorf("trace: write: %w", err)
		return w.err
	}
	return nil
}

// Meta writes the capture header event.
func (w *Writer) Meta(servers int, source string) error {
	return w.Write(Event{Kind: KindMeta, Servers: servers, Source: source})
}

// Flush drains the buffer to the underlying writer and reports the
// first error seen by any Write.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = fmt.Errorf("trace: flush: %w", err)
	}
	return w.err
}

// maxLine bounds one JSONL line in bytes (1 MiB, matching the historic
// Scanner buffer limit).
const maxLine = 1 << 20

// Reader decodes and validates a JSONL event stream.
//
// A Reader built with NewTailReader is safe over a *growing* file (a
// live capture another process is still appending to): a torn final
// line — the tail of a write that has not reached its newline yet — is
// buffered across Next calls and returned only once its newline lands,
// with io.EOF signalling "no complete line available right now". Plain
// NewReader keeps whole-file semantics: at end of stream a trailing
// unterminated line is treated as complete, so static captures that
// lost their final newline still parse fully.
type Reader struct {
	br   *bufio.Reader
	tail bool
	// pending accumulates the bytes of a line whose newline has not been
	// seen yet (tail mode) or that straddled reader refills, up to
	// maxLine+1 of them.
	pending []byte
	// Servers is the system size learned from the first meta event
	// (0 until one is seen); when known, server/endpoint indices are
	// range-checked.
	Servers int
	line    int
}

// NewReader returns a Reader over a complete stream. Lines up to 1 MiB
// are accepted.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 64*1024)}
}

// NewTailReader returns a Reader for tailing a growing stream: Next
// returns io.EOF whenever no newline-terminated line is available yet,
// holding any partially written final line until it completes. Callers
// poll Next again after the underlying file has grown.
func NewTailReader(r io.Reader) *Reader {
	tr := NewReader(r)
	tr.tail = true
	return tr
}

// Next returns the next event, io.EOF at the end of the stream (or, in
// tail mode, when only an incomplete final line remains), or a
// line-qualified error on malformed input. Blank lines are skipped.
func (r *Reader) Next() (Event, error) {
	for {
		// ReadSlice hands over at most a buffer at a time, and pending
		// keeps at most maxLine+1 bytes of a line: enough to tell it is
		// over-long, however long it goes on.
		chunk, err := r.br.ReadSlice('\n')
		r.pending = append(r.pending, chunk[:min(len(chunk), maxLine+1-len(r.pending))]...)
		switch {
		case err == nil:
			// Complete line.
		case errors.Is(err, bufio.ErrBufferFull):
			continue
		case errors.Is(err, io.EOF):
			if r.tail || len(bytes.TrimSpace(r.pending)) == 0 {
				// Tail mode holds the torn line, an over-long one cut short,
				// for the writer to finish; either way nothing is complete.
				return Event{}, io.EOF
			}
			// Whole-stream mode: the final line simply lost its newline.
		default:
			return Event{}, fmt.Errorf("trace: read: %w", err)
		}
		r.line++
		if len(r.pending) > maxLine {
			r.pending = r.pending[:0]
			return Event{}, fmt.Errorf("trace: line %d: longer than %d bytes", r.line, maxLine)
		}
		line := bytes.TrimSpace(r.pending)
		r.pending = r.pending[:0]
		if len(line) == 0 {
			continue
		}
		ev, perr := r.parse(line)
		if perr != nil {
			return Event{}, perr
		}
		return ev, nil
	}
}

// parse decodes and validates one complete line.
func (r *Reader) parse(line []byte) (Event, error) {
	var ev Event
	if err := json.Unmarshal(line, &ev); err != nil {
		return Event{}, fmt.Errorf("trace: line %d: %w", r.line, err)
	}
	if err := ev.Validate(); err != nil {
		return Event{}, fmt.Errorf("trace: line %d: %w", r.line, err)
	}
	if ev.Kind == KindMeta && ev.Servers > 0 {
		r.Servers = ev.Servers
	}
	if r.Servers > 0 {
		if err := checkRange(&ev, r.Servers); err != nil {
			return Event{}, fmt.Errorf("trace: line %d: %w", r.line, err)
		}
	}
	return ev, nil
}

// checkRange bounds server indices once the system size is known.
func checkRange(ev *Event, n int) error {
	switch ev.Kind {
	case KindService, KindFailure:
		if ev.Server >= n {
			return fmt.Errorf("trace: %s event for server %d in a %d-server capture", ev.Kind, ev.Server, n)
		}
	case KindTransfer, KindFN:
		if ev.Src >= n || ev.Dst >= n {
			return fmt.Errorf("trace: %s event %d→%d in a %d-server capture", ev.Kind, ev.Src, ev.Dst, n)
		}
	}
	return nil
}

// ReadAll decodes and validates every event in r.
func ReadAll(r io.Reader) ([]Event, error) {
	tr := NewReader(r)
	var out []Event
	for {
		ev, err := tr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
}
