package ingest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dtr/internal/obs"
	"dtr/internal/trace"
)

// singleLines is what one line at a time through ParseLine or
// decodeJSONL and Aggregator.Observe does to a fresh aggregator: the
// reply the batch path must give, the counter deltas it must make, and
// the state it must leave.
func singleLines(t *testing.T, cfg Config, lines []string, jsonl string) (IngestResponse, [4]uint64, string) {
	t.Helper()
	agg := New(cfg)
	var resp IngestResponse
	var drops, malformed uint64
	for _, l := range lines {
		var tenant string
		var ev trace.Event
		var err error
		switch {
		case l[0] != '{':
			tenant, ev, err = ParseLine(l)
		case jsonl == "":
			err = errNoTenant
		default:
			tenant = jsonl
			ev, err = decodeJSONL([]byte(l))
		}
		if err == nil {
			err = agg.Observe(tenant, ev)
		}
		switch {
		case err == nil:
			resp.Accepted++
			continue
		case errors.Is(err, ErrChannelLimit) || errors.Is(err, ErrServerLimit) || errors.Is(err, ErrTenantLimit):
			drops++
		default:
			malformed++
		}
		resp.Rejected++
		if resp.Error == "" {
			resp.Error = err.Error()
		}
	}
	return resp, [4]uint64{uint64(len(lines)), uint64(resp.Accepted), malformed, drops}, observedState(t, agg)
}

// sameAsSingleLines holds the batch path to single-event ingest on one
// body: sent as one HTTP request (JSONL events landing in tenant acme)
// and as one datagram (JSONL refused), it must come to what its lines do
// one at a time through Aggregator.Observe — the same accepted and
// rejected counts and first error, the same moves of
// dtr_ingest_{lines,events,parse_errors,drops}_total, and the same
// tenants and snapshots — on a tightly capped aggregator and on a roomy
// one.
func sameAsSingleLines(t *testing.T, body string) {
	t.Helper()
	var lines []string
	for _, l := range strings.Split(body, "\n") {
		if l = strings.TrimSpace(l); l != "" {
			lines = append(lines, l)
		}
	}
	for _, cfg := range []Config{{MaxServers: 4, MaxTenants: 1, MaxChannels: 4}, {MaxServers: 8}} {
		cfg.Now = newFakeClock().Now
		srv := NewServer(New(cfg), nil, 0)
		before := ingestCounters()
		rec := httptest.NewRecorder()
		srv.handleIngest(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest?tenant=acme", strings.NewReader(body)))
		moved := delta(ingestCounters(), before)
		var got IngestResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("HTTP status %d: %s", rec.Code, rec.Body)
		}
		want, wantMoved, wantState := singleLines(t, cfg, lines, "acme")
		if got != want || moved != wantMoved {
			t.Errorf("HTTP batch %+v moved counters by %v; one line at a time %+v and %v", got, moved, want, wantMoved)
		}
		if state := observedState(t, srv.agg); state != wantState {
			t.Errorf("HTTP batch left\n%s\none line at a time\n%s", state, wantState)
		}

		srv = NewServer(New(cfg), nil, 0)
		before = ingestCounters()
		srv.datagram([]byte(body))
		moved = delta(ingestCounters(), before)
		_, wantMoved, wantState = singleLines(t, cfg, lines, "")
		if moved != wantMoved {
			t.Errorf("datagram moved counters by %v, one line at a time %v", moved, wantMoved)
		}
		if state := observedState(t, srv.agg); state != wantState {
			t.Errorf("datagram left\n%s\none line at a time\n%s", state, wantState)
		}
	}
}

// FuzzIngestBatch: whatever the bytes, the batch path lands them as
// single-event ingest does (sameAsSingleLines). Seed corpus:
// TestIngestCountersMixedBatch's body, which switches tenant, mixes JSONL
// and hits every cap, and a body that switches tenant every line.
func FuzzIngestBatch(f *testing.F) {
	f.Add(strings.Join([]string{
		"acme/service.0 1.5", "acme/service.1 2.5 c", "  acme/transfer.0.1.4 2.0\r", "", "acme/fn.1.0 0.25",
		`{"v":1,"kind":"service","server":1,"value":0.75}`, `{"v":1,"kind":"service","server":1,"value":`,
		"bogus line that does not parse", "acme/service.0 -1", "acme/transfer.1.1.2 1", "acme/service.7 1",
		"acme/service.7 -1", "other/service.0 1", "other/service.0 nan", "acme/failure.0 3", "acme/failure.0 3 c",
		"acme/transfer.0.1.0 1 c",
	}, "\n"))
	f.Add("a/service.0 1\nb/service.0 2\na/service.1 3\n{\"v\":1,\"kind\":\"meta\",\"servers\":2}\nacme/fn.1.0 1")
	obs.SetDefault(obs.NewRegistry())
	f.Cleanup(func() { obs.SetDefault(nil) })
	f.Fuzz(func(t *testing.T, body string) {
		if len(body) > 4<<10 {
			return // TestBatchRunsMatchSingleLines takes the long bodies
		}
		sameAsSingleLines(t, body)
	})
}

// TestBatchRunsMatchSingleLines: bodies of several runs — full runs of
// one tenant, JSONL events joining the runs of their tenant — land as
// single-event ingest does.
func TestBatchRunsMatchSingleLines(t *testing.T) {
	obs.SetDefault(obs.NewRegistry())
	t.Cleanup(func() { obs.SetDefault(nil) })
	long := bytes.Join(benchLines(2*runCap+3), []byte("\n"))
	sameAsSingleLines(t, string(long))
	acme := bytes.ReplaceAll(long, []byte("t0000001"), []byte("acme"))
	sameAsSingleLines(t, string(bytes.ReplaceAll(acme, []byte(".5"), []byte(".5\n{\"v\":1,\"kind\":\"service\",\"server\":1,\"value\":0.5}"))))
}

// TestRunStampedAtFirstLine: a run lands in the window of its first
// line, not in the one its fold happens in. The clock crosses a window
// boundary between two lines of one run; once that first window expires,
// both lines are gone from the snapshot.
func TestRunStampedAtFirstLine(t *testing.T) {
	clk := newFakeClock()
	srv := NewServer(New(Config{Window: time.Minute, Windows: 2, Buckets: 64, Now: clk.Now}), nil, 0)
	b := srv.newBatch(nil)
	b.line([]byte("acme/service.0 1"))
	clk.Advance(time.Minute)
	b.line([]byte("acme/service.0 2"))
	b.done()
	service := func() uint64 {
		snap, err := srv.agg.Snapshot("acme")
		if err != nil {
			t.Fatal(err)
		}
		if snap.Stats.Servers == 0 {
			return 0
		}
		return snap.Stats.Service[0].N
	}
	if n := service(); n != 2 {
		t.Fatalf("both lines landed: n = %d, want 2", n)
	}
	clk.Advance(time.Minute)
	if n := service(); n != 0 {
		t.Errorf("the first line's window expired, yet n = %d of the run's 2 lines remain", n)
	}
}

// postBody posts one body straight into the handler and requires every
// line to land.
func postBody(t *testing.T, srv *Server, tenant string, body []byte) {
	rec := httptest.NewRecorder()
	srv.handleIngest(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest?tenant="+tenant, bytes.NewReader(body)))
	var ir IngestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ir); err != nil || rec.Code != http.StatusOK || ir.Rejected != 0 {
		t.Errorf("tenant %s: status %d: %s", tenant, rec.Code, rec.Body)
	}
}

// TestConcurrentBatches: eight posters send batches of more than one run
// each, every poster for its own tenant and JSONL mixed in, while
// snapshots are taken; the runs interleave under the aggregator's lock,
// yet every tenant ends byte for byte as a serial ingest of the same
// batches leaves it.
func TestConcurrentBatches(t *testing.T) {
	const posters, batches = 8, 3
	bodies := make([][][]byte, posters)
	for p := range bodies {
		for b := 0; b < batches; b++ {
			lines := benchLines(runCap + 37*p + 101*b)
			for i := 0; i < len(lines); i += 50 {
				lines[i] = fmt.Appendf(nil, `{"v":1,"kind":"service","server":1,"value":%d.25}`, i%9)
			}
			tenant := fmt.Appendf(nil, "t%07d", p)
			bodies[p] = append(bodies[p], bytes.ReplaceAll(bytes.Join(lines, []byte("\n")), []byte("t0000001"), tenant))
		}
	}
	newSrv := func() *Server { return NewServer(New(Config{Buckets: 64, Now: newFakeClock().Now}), nil, 0) }

	srv := newSrv()
	var wg sync.WaitGroup
	var posting atomic.Int32
	posting.Store(posters)
	for p := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer posting.Add(-1)
			for _, body := range bodies[p] {
				postBody(t, srv, fmt.Sprintf("t%07d", p), body)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for posting.Load() > 0 {
			for _, tenant := range srv.agg.Tenants() {
				if _, err := srv.agg.Snapshot(tenant); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	wg.Wait()

	serial := newSrv()
	for p := range bodies {
		for _, body := range bodies[p] {
			postBody(t, serial, fmt.Sprintf("t%07d", p), body)
		}
	}
	if got, want := observedState(t, srv.agg), observedState(t, serial.agg); got != want {
		t.Errorf("concurrent batches left\n%s\na serial ingest\n%s", got, want)
	}
}

// BenchmarkHandleIngestParallel posts the benchmark's 500-line body from
// every poster at once, one tenant per poster: the posters contend for
// the aggregator's lock once per run rather than once per line.
func BenchmarkHandleIngestParallel(b *testing.B) {
	srv := NewServer(New(Config{}), nil, 0)
	body := bytes.Join(benchLines(500), []byte("\n"))
	var posters atomic.Int32
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		mine := bytes.ReplaceAll(body, []byte("t0000001"), fmt.Appendf(nil, "t%07d", posters.Add(1)))
		for pb.Next() {
			rec := httptest.NewRecorder()
			srv.handleIngest(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(mine)))
			if rec.Code != http.StatusOK {
				b.Errorf("status %d: %s", rec.Code, rec.Body)
				return
			}
		}
	})
}
