package policy

import (
	"bytes"
	"reflect"
	"testing"

	"dtr/dist"
	"dtr/internal/direct"
	"dtr/internal/obs"
)

// TestOptimize2TracedBitIdentical proves tracing is purely
// observational at the solver layer: a traced search returns exactly the
// result of an untraced one — same policy, same value bits, same
// evaluation count — while still exporting a span tree.
func TestOptimize2TracedBitIdentical(t *testing.T) {
	m := model2(dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1), 0, 0, 1)

	plain := solver2(t, m, 40, 1<<12, 160)
	base, err := Optimize2(plain, 24, 12, ObjMeanTime, Options2{})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	tracer := obs.NewTracer(&buf)
	root := tracer.StartRoot("test", "")
	ts, err := direct.NewSolver(m, direct.Config{N: 1 << 12, Horizon: 160, MaxQueue: [2]int{40, 40}, Span: root})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := Optimize2(ts, 24, 12, ObjMeanTime, Options2{Span: root})
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	if !reflect.DeepEqual(base, traced) {
		t.Errorf("traced result differs:\n  plain:  %+v\n  traced: %+v", base, traced)
	}
	if buf.Len() == 0 {
		t.Error("traced run exported no spans")
	}
}

// TestAlgorithm1TracedBitIdentical repeats the identity check for the
// multi-server refinement, whose rows attach spans concurrently.
func TestAlgorithm1TracedBitIdentical(t *testing.T) {
	m := fiveServer(dist.FamilyExponential, 0.5, true)
	queues := []int{18, 6, 3, 2, 1}

	base, err := Algorithm1(m, queues, Alg1Options{K: 3, GridN: 512})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	tracer := obs.NewTracer(&buf)
	root := tracer.StartRoot("test", "")
	traced, err := Algorithm1(m, queues, Alg1Options{K: 3, GridN: 512, Span: root})
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	if !reflect.DeepEqual(base, traced) {
		t.Errorf("traced policy differs:\n  plain:  %v\n  traced: %v", base, traced)
	}
	if buf.Len() == 0 {
		t.Error("traced run exported no spans")
	}
}
