package ingest

// The ingest line protocol: one observation per line, cheap enough to
// emit from a hot path and to parse at datagram rates, following the
// statsd tradition of "name value" lines. Grammar (DESIGN.md §11):
//
//	line    = tenant "/" channel SP value [SP "c"]
//	tenant  = 1*(ALPHA / DIGIT / "-" / "_" / ".")
//	channel = "service." index            ; service duration at server
//	        / "failure." index            ; time-to-failure of server
//	        / "transfer." index "." index "." count   ; src.dst.tasks
//	        / "fn." index "." index       ; failure notice src.dst
//	value   = non-negative float          ; model time units
//
// The trailing "c" marks a right-censored observation (value is a
// lower bound). Examples:
//
//	acme/service.0 1.52
//	acme/service.1 0.25 c
//	acme/transfer.0.1.26 31.4
//	acme/failure.1 142.7
//	acme/fn.1.0 0.9
//
// Every line maps onto one trace.Event, so the line protocol and the
// trace.v1 JSONL batch path share a single validation and aggregation
// path.

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"dtr/internal/trace"
)

// ParseLine parses one line-protocol observation into its tenant and
// the equivalent trace event. The event still needs Validate (Observe
// sees to it); ParseLine only enforces the grammar. It cuts the line by
// index and allocates nothing: tenant is a substring of line.
func ParseLine(line string) (tenant string, ev trace.Event, err error) {
	var fields [3]string
	n := 0
	for rest := line; ; n++ {
		rest = strings.TrimLeftFunc(rest, unicode.IsSpace)
		if rest == "" {
			break
		}
		end := strings.IndexFunc(rest, unicode.IsSpace)
		if end < 0 {
			end = len(rest)
		}
		if n < len(fields) {
			fields[n] = rest[:end]
		}
		rest = rest[end:]
	}
	if n < 2 || n > 3 {
		return "", ev, fmt.Errorf("ingest: want %q, got %d fields", "tenant/channel value [c]", n)
	}
	key := fields[0]
	slash := strings.IndexByte(key, '/')
	if slash <= 0 || slash == len(key)-1 {
		return "", ev, fmt.Errorf("ingest: key %q is not tenant/channel", key)
	}
	tenant, channel := key[:slash], key[slash+1:]
	for _, r := range tenant {
		if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '-' || r == '_' || r == '.') {
			return "", ev, fmt.Errorf("ingest: tenant %q has invalid character %q", tenant, r)
		}
	}
	value, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return "", ev, fmt.Errorf("ingest: value %q: %w", fields[1], err)
	}
	if n == 3 && fields[2] != "c" {
		return "", ev, fmt.Errorf("ingest: trailing field %q (only %q marks censoring)", fields[2], "c")
	}

	// channel = kind "." index *("." index): the kind says how many indices
	// follow and where they go.
	ev = trace.Event{V: trace.Version, Value: value, Censored: n == 3}
	name, rest, _ := strings.Cut(channel, ".")
	var kind string
	var into []*int
	switch name {
	case "service":
		kind, into = trace.KindService, []*int{&ev.Server}
	case "failure":
		kind, into = trace.KindFailure, []*int{&ev.Server}
	case "transfer":
		kind, into = trace.KindTransfer, []*int{&ev.Src, &ev.Dst, &ev.Tasks}
	case "fn":
		kind, into = trace.KindFN, []*int{&ev.Src, &ev.Dst}
	}
	if kind == "" || strings.Count(channel, ".") != len(into) {
		return "", ev, fmt.Errorf("ingest: unknown channel %q (want service.<i>, failure.<i>, transfer.<src>.<dst>.<tasks> or fn.<src>.<dst>)", channel)
	}
	ev.Kind = kind
	for _, dst := range into {
		var part string
		part, rest, _ = strings.Cut(rest, ".")
		i, err := strconv.Atoi(part)
		if err != nil || i < 0 {
			return "", ev, fmt.Errorf("ingest: channel %q: index %q is not a non-negative integer", channel, part)
		}
		*dst = i
	}
	return tenant, ev, nil
}
