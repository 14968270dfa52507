package trace

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	events := []Event{
		{Kind: KindMeta, Servers: 2, Source: "test"},
		{Kind: KindService, Server: 0, Value: 1.5, Rep: 3, T: 10},
		{Kind: KindService, Server: 1, Value: 0.25, Censored: true},
		{Kind: KindTransfer, Src: 0, Dst: 1, Tasks: 26, Value: 31.4, T: 0.5},
		{Kind: KindFN, Src: 1, Dst: 0, Value: 0.9},
		{Kind: KindFailure, Server: 1, Value: 142.7},
		{Kind: KindFailure, Server: 0, Value: 250, Censored: true},
	}
	for _, ev := range events {
		if err := w.Write(ev); err != nil {
			t.Fatalf("Write(%+v): %v", ev, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events, wrote %d", len(got), len(events))
	}
	for i, ev := range events {
		ev.V = Version
		if got[i] != ev {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], ev)
		}
	}
}

func TestWriterRejectsInvalid(t *testing.T) {
	w := NewWriter(io.Discard)
	bad := []Event{
		{Kind: "", Value: 1},
		{Kind: "bogus", Value: 1},
		{Kind: KindService, Server: -1, Value: 1},
		{Kind: KindService, Server: 0, Value: -1},
		{Kind: KindTransfer, Src: 0, Dst: 1, Tasks: 0, Value: 1},
		{Kind: KindTransfer, Src: 1, Dst: 1, Tasks: 2, Value: 1},
		{Kind: KindFN, Src: 0, Dst: -1, Value: 1},
		{Kind: KindService, Server: 0, Value: 1, Rep: -2},
	}
	for _, ev := range bad {
		if err := w.Write(ev); err == nil {
			t.Errorf("Write(%+v): want error, got nil", ev)
		}
	}
	// Invalid writes must not poison the writer.
	if err := w.Write(Event{Kind: KindService, Value: 1}); err != nil {
		t.Fatalf("valid write after rejected events: %v", err)
	}
}

func TestReaderRejectsMalformed(t *testing.T) {
	cases := []string{
		`{"v":1,"kind":"service","value":`,                              // truncated JSON
		`{"v":99,"kind":"service","value":1}`,                           // future version
		`{"v":1,"kind":"warp","value":1}`,                               // unknown kind
		`{"v":1,"kind":"service","server":0}` + "\n" + `{"bad":}`,       // second line bad
		`{"v":1,"kind":"transfer","src":0,"dst":0,"tasks":2,"value":1}`, // self-transfer
	}
	for _, in := range cases {
		if _, err := ReadAll(strings.NewReader(in)); err == nil {
			t.Errorf("ReadAll(%q): want error, got nil", in)
		}
	}
}

func TestReaderRangeChecksAfterMeta(t *testing.T) {
	in := `{"v":1,"kind":"meta","servers":2}
{"v":1,"kind":"service","server":1,"value":1}
{"v":1,"kind":"service","server":2,"value":1}
`
	_, err := ReadAll(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "2-server capture") {
		t.Fatalf("want out-of-range server error, got %v", err)
	}
}

func TestReaderSkipsBlankLines(t *testing.T) {
	in := "\n" + `{"v":1,"kind":"service","server":0,"value":1}` + "\n\n"
	evs, err := ReadAll(strings.NewReader(in))
	if err != nil || len(evs) != 1 {
		t.Fatalf("got %d events, err %v; want 1, nil", len(evs), err)
	}
}

// TestReaderFinalLineWithoutNewline keeps the whole-stream contract: a
// static capture that lost its trailing newline still parses fully.
func TestReaderFinalLineWithoutNewline(t *testing.T) {
	in := `{"v":1,"kind":"service","server":0,"value":1}` + "\n" +
		`{"v":1,"kind":"service","server":1,"value":2}` // no trailing \n
	evs, err := ReadAll(strings.NewReader(in))
	if err != nil || len(evs) != 2 {
		t.Fatalf("got %d events, err %v; want 2, nil", len(evs), err)
	}
}

// TestTailReaderTornLine is the live-tail regression test: a partially
// written final line must not be surfaced (or error) until its newline
// lands — dtringest and `dtradapt -follow` both read growing files.
func TestTailReaderTornLine(t *testing.T) {
	full := `{"v":1,"kind":"service","server":0,"value":1.5}`
	var buf bytes.Buffer
	buf.WriteString(full + "\n")
	// Torn write: the writer got halfway through the second line.
	buf.WriteString(full[:20])

	r := NewTailReader(&buf)
	ev, err := r.Next()
	if err != nil || ev.Kind != KindService {
		t.Fatalf("first line: got %+v, %v", ev, err)
	}
	// Only the torn fragment remains: Next must answer io.EOF, not a
	// parse error and not a half event.
	for i := 0; i < 3; i++ {
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("torn line, attempt %d: got %v, want io.EOF", i, err)
		}
	}
	// The writer finishes the line (plus one more event after it); the
	// completed line must come back exactly once.
	buf.WriteString(full[20:] + "\n")
	buf.WriteString(`{"v":1,"kind":"service","server":1,"value":2}` + "\n")
	ev, err = r.Next()
	if err != nil || ev.Value != 1.5 {
		t.Fatalf("completed torn line: got %+v, %v", ev, err)
	}
	ev, err = r.Next()
	if err != nil || ev.Server != 1 {
		t.Fatalf("line after torn line: got %+v, %v", ev, err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("end of growth: got %v, want io.EOF", err)
	}
}

// TestTailReaderTornAcrossManyAppends drips one event in byte-sized
// appends; the reader must stay at io.EOF until the newline arrives.
func TestTailReaderTornAcrossManyAppends(t *testing.T) {
	line := `{"v":1,"kind":"fn","src":0,"dst":1,"value":0.9}` + "\n"
	var buf bytes.Buffer
	r := NewTailReader(&buf)
	for i := 0; i < len(line)-1; i++ {
		buf.WriteByte(line[i])
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("after %d bytes: got %v, want io.EOF", i+1, err)
		}
	}
	buf.WriteByte('\n')
	ev, err := r.Next()
	if err != nil || ev.Kind != KindFN {
		t.Fatalf("completed line: got %+v, %v", ev, err)
	}
}

// TestReaderSkipsOverlongLine: a line longer than maxLine is one error,
// and the reader moves on to the next line and then io.EOF. The tail
// reader holds the line until its newline lands, and must then drop all
// of it instead of parsing its rest as a fresh line.
func TestReaderSkipsOverlongLine(t *testing.T) {
	long := strings.Repeat("x", maxLine+1)
	event := `{"v":1,"kind":"service","server":0,"value":1.5}` + "\n"
	check := func(name string, r *Reader) {
		t.Helper()
		if _, err := r.Next(); err == nil || !strings.Contains(err.Error(), "line 1: longer than") {
			t.Fatalf("%s: over-long line: got %v, want its error", name, err)
		}
		ev, err := r.Next()
		if err != nil || ev.Value != 1.5 {
			t.Fatalf("%s: line after the over-long one: got %+v, %v", name, ev, err)
		}
		for i := 0; i < 3; i++ {
			if _, err := r.Next(); err != io.EOF {
				t.Fatalf("%s: end of stream, attempt %d: got %v, want io.EOF", name, i, err)
			}
		}
	}
	check("whole", NewReader(strings.NewReader(long+"\n"+event)))
	var buf bytes.Buffer
	buf.WriteString(long + "x")
	tr := NewTailReader(&buf)
	if _, err := tr.Next(); err != io.EOF {
		t.Fatalf("tail: over-long line before its newline: got %v, want io.EOF", err)
	}
	buf.WriteString(`{"v":1}` + "\n" + event)
	check("tail", tr)
}

func TestWriterConcurrent(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	const goroutines, per = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_ = w.Write(Event{Kind: KindService, Server: g, Value: float64(i) + 0.5, Rep: g})
			}
		}(g)
	}
	wg.Wait()
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	evs, err := ReadAll(&buf)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(evs) != goroutines*per {
		t.Fatalf("got %d events, want %d", len(evs), goroutines*per)
	}
	perServer := map[int]int{}
	for _, ev := range evs {
		perServer[ev.Server]++
	}
	for g := 0; g < goroutines; g++ {
		if perServer[g] != per {
			t.Errorf("server %d: %d events, want %d", g, perServer[g], per)
		}
	}
}

func TestWriterStickyError(t *testing.T) {
	w := NewWriter(failAfter{n: 1})
	// The bufio buffer absorbs small writes; force a flush to hit the
	// failing writer, then confirm the error sticks.
	_ = w.Write(Event{Kind: KindService, Value: 1})
	if err := w.Flush(); err == nil {
		t.Fatal("Flush on failing writer: want error")
	}
	if err := w.Write(Event{Kind: KindService, Value: 2}); err == nil {
		t.Fatal("Write after failure: want sticky error")
	}
}

// failAfter fails every write once n bytes-writes have happened.
type failAfter struct{ n int }

func (f failAfter) Write(p []byte) (int, error) {
	return 0, fmt.Errorf("disk full")
}
