package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"dtr/internal/obs"
	"dtr/internal/trace"
)

// referenceParseLine is ParseLine as it stood before it cut fields by
// index (strings.Fields, strings.Split, one slice per line each): kept
// as the oracle the rewrite is held to, tenant, event and error text.
func referenceParseLine(line string) (tenant string, ev trace.Event, err error) {
	fields := strings.Fields(line)
	if len(fields) < 2 || len(fields) > 3 {
		return "", ev, fmt.Errorf("ingest: want %q, got %d fields", "tenant/channel value [c]", len(fields))
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
	censored := false
	if len(fields) == 3 {
		if fields[2] != "c" {
			return "", ev, fmt.Errorf("ingest: trailing field %q (only %q marks censoring)", fields[2], "c")
		}
		censored = true
	}

	parts := strings.Split(channel, ".")
	idx := func(i int) (int, error) {
		n, err := strconv.Atoi(parts[i])
		if err != nil || n < 0 {
			return 0, fmt.Errorf("ingest: channel %q: index %q is not a non-negative integer", channel, parts[i])
		}
		return n, nil
	}
	ev = trace.Event{V: trace.Version, Value: value, Censored: censored}
	switch {
	case parts[0] == "service" && len(parts) == 2:
		ev.Kind = trace.KindService
		ev.Server, err = idx(1)
	case parts[0] == "failure" && len(parts) == 2:
		ev.Kind = trace.KindFailure
		ev.Server, err = idx(1)
	case parts[0] == "transfer" && len(parts) == 4:
		ev.Kind = trace.KindTransfer
		if ev.Src, err = idx(1); err == nil {
			if ev.Dst, err = idx(2); err == nil {
				ev.Tasks, err = idx(3)
			}
		}
	case parts[0] == "fn" && len(parts) == 3:
		ev.Kind = trace.KindFN
		if ev.Src, err = idx(1); err == nil {
			ev.Dst, err = idx(2)
		}
	default:
		return "", ev, fmt.Errorf("ingest: unknown channel %q (want service.<i>, failure.<i>, transfer.<src>.<dst>.<tasks> or fn.<src>.<dst>)", channel)
	}
	if err != nil {
		return "", ev, err
	}
	return tenant, ev, nil
}

// sameAsReference holds ParseLine, and the parse of the same line as
// borrowed bytes that the wire path runs, to the reference on one line:
// same tenant, same event — on a rejection too, where callers must not
// look at it but the reference leaves what it had parsed — and same
// error.
func sameAsReference(t *testing.T, line string) {
	t.Helper()
	wt, wev, werr := referenceParseLine(line)
	gt, gev, gerr := ParseLine(line)
	bt, bev, berr := parseLine([]byte(line))
	// NaN values ("nan" parses) never compare equal as floats.
	want := fmt.Sprintf("%q, %+v, %v", wt, wev, werr)
	if got := fmt.Sprintf("%q, %+v, %v", gt, gev, gerr); got != want {
		t.Errorf("ParseLine(%q) = %s\nreference      = %s", line, got, want)
	}
	if got := fmt.Sprintf("%q, %+v, %v", bt, bev, berr); got != want {
		t.Errorf("parseLine([]byte(%q)) = %s\nreference               = %s", line, got, want)
	}
}

// parseSeeds are the lines this package's tests feed the parser, plus
// the separators and index spellings where a field cutter can go wrong.
var parseSeeds = []string{
	"acme/service.0 1.52", "acme/service.1 0.25 c", "t-1/transfer.0.1.26 31.4", "a.b/fn.1.0 0.9",
	"x/failure.1 142.7 c", "", "acme/service.0", "service.0 1.5", "acme/service.0 1.5 x",
	"acme/service.0 1.5 c c", "acme/warp.0 1.5", "acme/service.x 1.5", "acme/service.-1 1.5",
	"acme/transfer.0.1 1.5", "acme/fn.0 1.5", "acme/service.0 soon", "ac me/service.0 1.5",
	"ac\tme/service.0 1.5", "a!b/service.0 1.5", "/service.0 1.5", "acme/ 1.5",
	"bogus line that does not parse", "not a line", "acme/fn.0.1 0.1", "acme/transfer.0.1.4 2.0",
	"acme/service.999999999 1", "acme/service.0 0", "acme/service.0 -1", "acme/transfer.1.1.2 1",
	"  acme/service.0\t 1.5 \r", "acme/service.0 1.5", "acme/service.0 1.5c", "a　b/service.0 1",
	"acme/service.0 1.5 c\xff", "\xc2/service.0 1", "ac\xe2\x80me/service.0 1", "é/service.0 1",
	"acme/service 1", "acme/service. 1", "acme/service.. 1", "acme/service.0.1 1", "acme/.0 1",
	"acme/transfer.0.1.x 1", "acme/transfer.0.-1.2 1", "acme/transfer.x.y.z 1", "acme/fn.0. 1",
	"acme/service.+1 1", "acme/service.007 1", "acme/service.99999999999999999999 1", "acme/fn.1.0.2 1",
	"acme/service.0 nan", "acme/service.0 +Inf c", "acme/service.0 0x1p-2", "acme/service.0 1_0",
	"acme/service.0 1e999", "a/b/service.0 1", "acme//service.0 1", "acme/service.0 1 C", "a/service.0 1 c d e f",
}

func TestParseLineMatchesReference(t *testing.T) {
	for _, line := range parseSeeds {
		sameAsReference(t, line)
	}
}

// FuzzParseLine: the ingest line parser faces the network (ROADMAP,
// robustness: it was unfuzzed). Whatever the bytes, it must not panic
// and must decide as the reference does. Seed corpus: parseSeeds and
// testdata/fuzz/FuzzParseLine.
func FuzzParseLine(f *testing.F) {
	for _, line := range parseSeeds {
		f.Add(line)
	}
	f.Fuzz(sameAsReference)
}

// ingestCounters reads the four per-line counters.
func ingestCounters() [4]uint64 {
	return [4]uint64{ingestLines.Value(), ingestEvents.Value(), ingestParseErrors.Value(), ingestDrops.Value()}
}

// TestIngestCountersMixedBatch pins what one mixed batch — good lines,
// malformed lines, invalid events, capacity drops, JSONL with and
// without a tenant — does to dtr_ingest_{lines,events,parse_errors,
// drops}_total, over HTTP and over UDP. An observation both invalid and
// over a capacity bound counts as a parse error, not a drop.
func TestIngestCountersMixedBatch(t *testing.T) {
	obs.SetDefault(obs.NewRegistry())
	t.Cleanup(func() { obs.SetDefault(nil) })
	batch := strings.Join([]string{
		"acme/service.0 1.5",
		"acme/service.1 2.5 c",
		"  acme/transfer.0.1.4 2.0\r",
		"",
		"acme/fn.1.0 0.25",
		`{"v":1,"kind":"service","server":1,"value":0.75}`, // lands over HTTP (?tenant=), no tenant over UDP
		`{"v":1,"kind":"service","server":1,"value":`,      // torn JSON
		"bogus line that does not parse",
		"acme/service.0 -1",       // invalid value
		"acme/transfer.1.1.2 1",   // src == dst
		"acme/service.7 1",        // beyond MaxServers: drop
		"acme/service.7 -1",       // beyond MaxServers and invalid: parse error
		"other/service.0 1",       // beyond MaxTenants: drop
		"other/service.0 nan",     // beyond MaxTenants and invalid: parse error
		"acme/failure.0 3",        // beyond MaxChannels: drop
		"acme/failure.0 3 c",      // likewise
		"acme/transfer.0.1.0 1 c", // beyond nothing (transfer exists), tasks < 1: parse error
	}, "\n")
	newServer := func() *Server {
		return NewServer(New(Config{MaxServers: 4, MaxTenants: 1, MaxChannels: 4, Now: newFakeClock().Now}), nil, 0)
	}

	srv := newServer()
	before := ingestCounters()
	rec := httptest.NewRecorder()
	srv.handleIngest(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest?tenant=acme", strings.NewReader(batch)))
	if want := `{"accepted":5,"rejected":11,"error":"ingest: bad JSONL event: unexpected end of JSON input"}`; strings.TrimSpace(rec.Body.String()) != want {
		t.Errorf("HTTP reply %s, want %s", rec.Body, want)
	}
	after := ingestCounters()
	if got, want := delta(after, before), [4]uint64{16, 5, 7, 4}; got != want {
		t.Errorf("HTTP: lines, events, parse errors, drops moved by %v, want %v", got, want)
	}

	srv = newServer()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ServeUDP(ctx, conn) }()
	out, err := net.Dial("udp", conn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	before = ingestCounters()
	if _, err := out.Write([]byte(batch)); err != nil {
		t.Fatal(err)
	}
	// One datagram, 16 lines: wait for the last to be counted.
	for deadline := time.Now().Add(5 * time.Second); ingestLines.Value()-before[0] < 16 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	after = ingestCounters()
	if got, want := delta(after, before), [4]uint64{16, 4, 8, 4}; got != want {
		t.Errorf("UDP: lines, events, parse errors, drops moved by %v, want %v", got, want)
	}
}

func delta(after, before [4]uint64) (d [4]uint64) {
	for i := range d {
		d[i] = after[i] - before[i]
	}
	return d
}

// benchLines is a batch shaped like the benchmark's observe_refit
// stream: two service channels and a transfer channel in turn, fixed
// eight-byte tenant, one line in seven censored.
func benchLines(n int) [][]byte {
	lines := make([][]byte, n)
	for i := range lines {
		var l string
		switch v := 0.5 + float64(i%97)/7; i % 3 {
		case 0:
			l = fmt.Sprintf("t0000001/service.0 %.6f", v)
		case 1:
			l = fmt.Sprintf("t0000001/service.1 %.6f", v)
		default:
			l = fmt.Sprintf("t0000001/transfer.0.1.%d %.6f", 1+i%20, v*float64(1+i%20))
		}
		if i%7 == 0 {
			l += " c"
		}
		lines[i] = []byte(l)
	}
	return lines
}

// observeLine sends one line down the wire path as a batch of its own,
// JSONL events landing in tenant jsonl ("" = none), and returns the
// line's refusal.
func observeLine(srv *Server, line []byte, jsonl string) error {
	b := srv.newBatch([]byte(jsonl))
	b.line(line)
	b.done()
	return b.first
}

// TestObserveLineAllocs is the cost contract of DESIGN.md §11: an
// accepted line-protocol line for a known tenant costs no allocation from
// the datagram or scanner buffer to the sketch, and a request costs no
// scan buffer. The measured passes fold into one batch, which takes its
// run from the pool once, outside them.
func TestObserveLineAllocs(t *testing.T) {
	srv := NewServer(New(Config{}), nil, 0)
	lines := benchLines(500)
	b := srv.newBatch(nil)
	defer b.done()
	observe := func() {
		before := b.accepted
		for _, l := range lines {
			b.line(l)
		}
		b.flush()
		if b.first != nil || b.accepted-before != len(lines) {
			t.Fatalf("a pass accepted %d of %d lines: %v", b.accepted-before, len(lines), b.first)
		}
	}
	observe() // the first pass creates the tenant, its window and channels
	if perPass := testing.AllocsPerRun(20, observe); perPass > 0 {
		t.Errorf("%.0f allocations per %d accepted lines of a known tenant, want 0", perPass, len(lines))
	}
	if raceEnabled {
		return // sync.Pool drops items at random: a request may grow a scan buffer
	}

	body := bytes.Join(lines, []byte("\n"))
	post := func() {
		rec := httptest.NewRecorder()
		srv.handleIngest(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	post()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const requests = 50
	for i := 0; i < requests; i++ {
		post()
	}
	runtime.ReadMemStats(&m1)
	// The request's own plumbing, about 6.2 KiB, and nothing per line. A
	// 64 KiB scan buffer per request, or a string per line, would show.
	if perReq := (m1.TotalAlloc - m0.TotalAlloc) / requests; perReq > 8<<10 {
		t.Errorf("%d bytes allocated per 500-line request, want <= 8 KiB", perReq)
	}
}

// TestObserveLineNewTenantAllocs: a line that creates a tenant costs
// what Aggregator.Observe costs to create one from a string, plus
// exactly one allocation — the map key, copied out of the buffer.
func TestObserveLineNewTenantAllocs(t *testing.T) {
	const runs = 100 // AllocsPerRun calls once more, to warm up
	lines := make([][]byte, runs+1)
	names := make([]string, runs+1)
	events := make([]trace.Event, runs+1)
	for i := range lines {
		l := fmt.Sprintf("tenant%03d/transfer.0.1.4 2.5", i)
		var err error
		if names[i], events[i], err = ParseLine(l); err != nil {
			t.Fatal(err)
		}
		lines[i] = []byte(l)
	}
	srv, agg := NewServer(New(Config{}), nil, 0), New(Config{})
	b := srv.newBatch(nil)
	defer b.done()
	i, j := 0, 0
	perLine := testing.AllocsPerRun(runs, func() {
		before := b.accepted
		b.line(lines[i])
		b.flush()
		if b.first != nil || b.accepted-before != 1 {
			t.Fatalf("line %d: accepted %d, want 1: %v", i, b.accepted-before, b.first)
		}
		i++
	})
	perEvent := testing.AllocsPerRun(runs, func() {
		if err := agg.Observe(names[j], events[j]); err != nil {
			t.Fatal(err)
		}
		j++
	})
	if perLine != perEvent+1 {
		t.Errorf("a new tenant's line costs %.0f allocations, Observe %.0f: want exactly one more", perLine, perEvent)
	}
}

// observedState is what the aggregator shows of itself: the tenant list
// and every tenant's snapshot, as bytes.
func observedState(t *testing.T, agg *Aggregator) string {
	t.Helper()
	var b strings.Builder
	for _, tenant := range agg.Tenants() {
		snap, err := agg.Snapshot(tenant)
		if err != nil {
			t.Fatalf("tenant %q listed but not snapshottable: %v", tenant, err)
		}
		js, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %s\n", tenant, js)
	}
	return b.String()
}

// TestObserveLineKeepsNoBuffer: the wire path parses a line in the
// caller's buffer, which the caller reuses for the next datagram or
// scan. Overwriting it after the line is folded must leave the tenant
// list and every snapshot as they were — a map key borrowing the
// buffer would rename its tenant. Within one batch the buffer is
// overwritten by the next line while the run is pending, which a run
// borrowing its tenant name would not survive either.
func TestObserveLineKeepsNoBuffer(t *testing.T) {
	srv := NewServer(New(Config{Now: newFakeClock().Now}), nil, 0)
	buf := make([]byte, 0, 64)
	lines := []string{"acme/service.0 1.5", "acme/service.1 2", "fresh/service.1 2.5 c", "acme/transfer.0.1.4 3"}
	for _, l := range lines {
		buf = append(buf[:0], l...)
		if err := observeLine(srv, buf, ""); err != nil {
			t.Fatal(err)
		}
		before := observedState(t, srv.agg)
		copy(buf, "XXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXX")
		if after := observedState(t, srv.agg); after != before {
			t.Fatalf("overwriting the buffer of %q changed the aggregator:\n%s\nwas\n%s", l, after, before)
		}
	}
	if got := srv.agg.Tenants(); len(got) != 2 || got[0] != "acme" || got[1] != "fresh" {
		t.Errorf("tenants %q", got)
	}

	batched := NewServer(New(Config{Now: newFakeClock().Now}), nil, 0)
	b := batched.newBatch(nil)
	for _, l := range lines {
		buf = append(buf[:0], l...)
		b.line(buf)
	}
	b.done()
	if got, want := observedState(t, batched.agg), observedState(t, srv.agg); got != want {
		t.Errorf("one batch over a reused buffer left\n%s\nline by line\n%s", got, want)
	}
}

// FuzzObserveLine drives the whole wire path, both formats mixed, on
// a server that already knows one tenant. Whatever the bytes: no panic;
// overwriting the caller's buffer afterwards changes nothing the
// aggregator shows; and an accepted line raises its tenant's snapshot
// event count by exactly one. Seed corpus: parseSeeds, the
// FuzzParseLine corpus and a few trace.v1 events.
func FuzzObserveLine(f *testing.F) {
	for _, line := range parseSeeds {
		f.Add(line)
	}
	files, _ := filepath.Glob("testdata/fuzz/FuzzParseLine/*")
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		// "go test fuzz v1" then string("…").
		_, arg, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		line, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(arg, "string("), ")"))
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		f.Add(line)
	}
	for _, ev := range []string{
		`{"v":1,"kind":"service","server":1,"value":0.75}`,
		`{"v":1,"kind":"transfer","src":0,"dst":1,"tasks":3,"value":2.5,"censored":true}`,
		`{"v":1,"kind":"meta","servers":2}`,
		`{"v":1,"kind":"failure","server":0,"value":-1}`,
		`{"v":1,"kind":"service","server":1,"value":`,
	} {
		f.Add(ev)
	}
	const jsonlTenant = "jsonl"
	f.Fuzz(func(t *testing.T, in string) {
		line := bytes.TrimSpace([]byte(in))
		if len(line) == 0 {
			return // a blank line is skipped, not observed
		}
		srv := NewServer(New(Config{MaxServers: 8, Now: newFakeClock().Now}), nil, 0)
		if err := observeLine(srv, []byte("acme/service.0 1"), ""); err != nil {
			t.Fatal(err)
		}
		tenant := jsonlTenant
		if line[0] != '{' {
			tenant, _, _ = ParseLine(string(line))
		}
		events := func() uint64 {
			snap, err := srv.agg.Snapshot(tenant)
			if err != nil {
				return 0
			}
			return snap.Events
		}
		n0 := events()
		err := observeLine(srv, line, jsonlTenant)
		before := observedState(t, srv.agg)
		for i := range line {
			line[i] = 'X'
		}
		if after := observedState(t, srv.agg); after != before {
			t.Fatalf("overwriting the buffer changed the aggregator:\n%s\nwas\n%s", after, before)
		}
		if n1 := events(); err == nil && n1 != n0+1 {
			t.Fatalf("accepted %q, yet tenant %q went from %d to %d events", in, tenant, n0, n1)
		}
	})
}

// BenchmarkObserveLine times one line of a long batch: its parse and its
// share of a run's fold.
func BenchmarkObserveLine(b *testing.B) {
	srv := NewServer(New(Config{}), nil, 0)
	lines := benchLines(500)
	b.ReportAllocs()
	b.ResetTimer()
	batch := srv.newBatch(nil)
	for i := 0; i < b.N; i++ {
		batch.line(lines[i%len(lines)])
	}
	batch.done()
	if batch.first != nil {
		b.Fatal(batch.first)
	}
}

// BenchmarkHandleIngest posts one 500-line body per iteration, the
// benchmark's batch size, straight into the handler: one tenant's body,
// whose lines fold as full runs, and a body whose tenant alternates on
// every line, the worst case, where every run is one event.
func BenchmarkHandleIngest(b *testing.B) {
	lines := benchLines(500)
	one := bytes.Join(lines, []byte("\n"))
	for i := 1; i < len(lines); i += 2 {
		lines[i] = bytes.Replace(lines[i], []byte("t0000001"), []byte("t0000002"), 1)
	}
	for _, c := range []struct {
		name string
		body []byte
	}{{"one_tenant", one}, {"alternating_tenants", bytes.Join(lines, []byte("\n"))}} {
		b.Run(c.name, func(b *testing.B) {
			srv := NewServer(New(Config{}), nil, 0)
			b.ReportAllocs()
			b.SetBytes(int64(len(c.body)))
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				srv.handleIngest(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(c.body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
		})
	}
}
