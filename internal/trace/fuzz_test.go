package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// growing is a file another process is appending to: Read hands out what
// has been appended and not yet read, and io.EOF when there is none.
type growing struct {
	buf []byte
	off int
}

func (g *growing) Read(p []byte) (int, error) {
	if g.off == len(g.buf) {
		return 0, io.EOF
	}
	n := copy(p, g.buf[g.off:])
	g.off += n
	return n, nil
}

// drain calls Next until io.EOF or the first error, which every caller
// treats as the end of the stream, and appends the events to evs.
func drain(r *Reader, evs []Event) ([]Event, error) {
	for {
		ev, err := r.Next()
		if errors.Is(err, io.EOF) {
			return evs, nil
		}
		if err != nil {
			return evs, err
		}
		evs = append(evs, ev)
	}
}

// progress calls Next until io.EOF and fails if a call returns anything
// else without moving past a line: after an error the reader goes on.
func progress(t *testing.T, r *Reader) {
	for {
		line := r.line
		_, err := r.Next()
		if errors.Is(err, io.EOF) {
			return
		}
		if r.line <= line {
			t.Fatalf("Next returned %v without moving past line %d", err, line)
		}
	}
}

// FuzzReader: whatever bytes arrive, the Reader does not panic; every
// event it accepts passes Validate; the Writer writes the accepted events
// into a stream the Reader reads back as the same events; a tail Reader
// fed the same newline-terminated bytes in chunks (sizes from cuts)
// yields what NewReader yields, up to the same first error; and after an
// error either reader makes progress or returns io.EOF.
func FuzzReader(f *testing.F) {
	for _, s := range []string{
		`{"v":1,"kind":"meta","servers":2,"source":"sim"}` + "\n" +
			`{"v":1,"kind":"service","server":1,"value":1.5,"rep":3,"t":10}` + "\n" +
			`{"v":1,"kind":"transfer","src":0,"dst":1,"tasks":26,"value":31.4,"censored":true}`,
		`{"v":1,"kind":"fn","src":1,"dst":0,"value":-0}` + "\n\n  \n" + `{"v":1,"kind":"failure","server":3,"value":2}`,
		`{"v":1,"kind":"meta","servers":2}` + "\n" + `{"v":1,"kind":"service","server":2,"value":1}`,
		`{"v":2,"kind":"service","value":1}`,
		`{"v":1,"kind":"service","value":1e400}`,
		"{\"v\":1,\"kind\":\"meta\",\"source\":\"\xff \"}\r\n{not json",
	} {
		f.Add([]byte(s), []byte{3, 0, 40})
	}
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		if len(data) == 0 || data[len(data)-1] != '\n' {
			data = append(data, '\n')
		}
		r := NewReader(bytes.NewReader(data))
		want, werr := drain(r, nil)
		progress(t, r)
		for i := range want {
			if err := want[i].Validate(); err != nil {
				t.Fatalf("accepted event %d fails Validate: %v (%+v)", i, err, want[i])
			}
		}

		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, ev := range want {
			if err := w.Write(ev); err != nil {
				t.Fatalf("Write(%+v): %v", ev, err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		back, err := ReadAll(&buf)
		if err != nil {
			t.Fatalf("reading the written events back: %v\n%s", err, buf.Bytes())
		}
		if len(back) != len(want) {
			t.Fatalf("wrote %d events, read %d back", len(want), len(back))
		}
		for i, ev := range want {
			if ev.V = Version; back[i] != ev {
				t.Fatalf("event %d: wrote %+v, read %+v back", i, ev, back[i])
			}
		}

		g := &growing{}
		tr := NewTailReader(g)
		var got []Event
		var gerr error
		for c := 0; len(g.buf) < len(data) && gerr == nil; c++ {
			n := 1
			if len(cuts) > 0 {
				n += int(cuts[c%len(cuts)])
			}
			g.buf = append(g.buf, data[len(g.buf):min(len(data), len(g.buf)+n)]...)
			got, gerr = drain(tr, got)
		}
		if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("tail reader ends with error %v, NewReader with %v", gerr, werr)
		}
		g.buf = data
		progress(t, tr)
		if len(got) != len(want) {
			t.Fatalf("tail reader yields %d events, NewReader %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("event %d: tail reader yields %+v, NewReader %+v", i, got[i], want[i])
			}
		}
	})
}
