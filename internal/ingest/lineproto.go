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
	"unicode"
	"unicode/utf8"

	"dtr/internal/trace"
)

// ParseLine parses one line-protocol observation into its tenant and
// the equivalent trace event. The event still needs Validate (Observe
// sees to it); ParseLine only enforces the grammar. It cuts the line by
// index and allocates nothing: tenant is a substring of line.
func ParseLine(line string) (tenant string, ev trace.Event, err error) { return parseLine(line) }

// parseLine is ParseLine over a string or over a borrowed []byte, whose
// tenant is then a subslice of the caller's buffer: the wire path parses
// the bytes it read without copying them into a string first.
func parseLine[S string | []byte](line S) (tenant S, ev trace.Event, err error) {
	var fields [3]S
	n, start := 0, -1
	for i, size := 0, 1; i < len(line); i += size {
		var space bool
		if c := line[i]; c < utf8.RuneSelf {
			space, size = asciiSpace[c], 1
		} else {
			var r rune
			r, size = runeAt(line, i)
			space = unicode.IsSpace(r)
		}
		switch {
		case space && start >= 0:
			if n < len(fields) {
				fields[n] = line[start:i]
			}
			n, start = n+1, -1
		case !space && start < 0:
			start = i
		}
	}
	if start >= 0 {
		if n < len(fields) {
			fields[n] = line[start:]
		}
		n++
	}
	if n < 2 || n > 3 {
		return tenant, ev, fmt.Errorf("ingest: want %q, got %d fields", "tenant/channel value [c]", n)
	}
	key := fields[0]
	slash := indexByte(key, '/')
	if slash <= 0 || slash == len(key)-1 {
		return tenant, ev, fmt.Errorf("ingest: key %q is not tenant/channel", key)
	}
	name, channel := key[:slash], key[slash+1:]
	for i := 0; i < len(name); i++ {
		if c := name[i]; c >= utf8.RuneSelf || !asciiTenant[c] {
			r, _ := runeAt(name, i)
			return tenant, ev, fmt.Errorf("ingest: tenant %q has invalid character %q", name, r)
		}
	}
	value, err := strconv.ParseFloat(string(fields[1]), 64)
	if err != nil {
		return tenant, ev, fmt.Errorf("ingest: value %q: %w", fields[1], err)
	}
	if n == 3 && string(fields[2]) != "c" {
		return tenant, ev, fmt.Errorf("ingest: trailing field %q (only %q marks censoring)", fields[2], "c")
	}

	// channel = kind "." index *("." index): the kind says how many indices
	// follow and where they go.
	ev = trace.Event{V: trace.Version, Value: value, Censored: n == 3}
	kindName, rest := cutByte(channel, '.')
	var kind string
	var into []*int
	switch string(kindName) {
	case "service":
		kind, into = trace.KindService, []*int{&ev.Server}
	case "failure":
		kind, into = trace.KindFailure, []*int{&ev.Server}
	case "transfer":
		kind, into = trace.KindTransfer, []*int{&ev.Src, &ev.Dst, &ev.Tasks}
	case "fn":
		kind, into = trace.KindFN, []*int{&ev.Src, &ev.Dst}
	}
	dots := 0
	for i := 0; i < len(channel); i++ {
		if channel[i] == '.' {
			dots++
		}
	}
	if kind == "" || dots != len(into) {
		return tenant, ev, fmt.Errorf("ingest: unknown channel %q (want service.<i>, failure.<i>, transfer.<src>.<dst>.<tasks> or fn.<src>.<dst>)", channel)
	}
	ev.Kind = kind
	for _, dst := range into {
		var part S
		part, rest = cutByte(rest, '.')
		i, err := strconv.Atoi(string(part))
		if err != nil || i < 0 {
			return tenant, ev, fmt.Errorf("ingest: channel %q: index %q is not a non-negative integer", channel, part)
		}
		*dst = i
	}
	return name, ev, nil
}

// asciiSpace and asciiTenant mark the ASCII bytes that unicode.IsSpace
// holds to be white space and that a tenant name may hold: parseLine
// decodes a rune only at a byte beyond them.
var asciiSpace, asciiTenant [utf8.RuneSelf]bool

func init() {
	for c := range asciiSpace {
		r := rune(c)
		asciiSpace[c] = unicode.IsSpace(r)
		asciiTenant[c] = r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '-' || r == '_' || r == '.'
	}
}

// runeAt decodes the rune starting at the non-ASCII byte s[i], as ranging
// over a string would, for either parseLine input. Ranging over string(b)
// itself would copy a line longer than the compiler's 32-byte stack buffer.
func runeAt[S string | []byte](s S, i int) (rune, int) {
	return utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
}

// indexByte is strings.IndexByte for either parseLine input.
func indexByte[S string | []byte](s S, c byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			return i
		}
	}
	return -1
}

// cutByte is strings.Cut at the byte c, for either parseLine input.
func cutByte[S string | []byte](s S, c byte) (before, after S) {
	if i := indexByte(s, c); i >= 0 {
		return s[:i], s[i+1:]
	}
	return s, s[len(s):]
}
