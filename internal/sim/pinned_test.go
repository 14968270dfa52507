package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/rngutil"
	"dtr/internal/trace"
)

// pinnedScenario is one row of testdata/outcomes_pinned.json: what the
// closure-queue simulator of commit e29363c (the last one that carried
// it) produced for a scenario — the full Outcome of the first
// pinnedFirst replications with every float as its IEEE-754 bits, a
// digest over pinnedReps of them, and a digest of the trace lines of the
// first pinnedTraced (sorted within a replication: the parent wrote the
// censored in-flight transfers in map order). The file is not
// regenerable from the code under test on purpose.
type pinnedScenario struct {
	Name        string   `json:"name"`
	First       []string `json:"first"`
	OutcomesSHA string   `json:"outcomes_sha256"`
	TraceSHA    string   `json:"trace_sha256"`
}

const (
	pinnedFirst  = 64
	pinnedReps   = 3000
	pinnedTraced = 500
)

// pinnedCanonical is the paper's two-server workload as
// BenchmarkRunCanonical runs it.
func pinnedCanonical(t testing.TB) (*core.Model, *core.State) {
	m := model2(dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1), 1000, 500, 1)
	s, err := core.NewState(m, []int{100, 50}, core.Policy2(30, 0))
	if err != nil {
		t.Fatal(err)
	}
	return m, s
}

// pinnedFive is a five-server fleet exercising what the canonical run
// does not: replication factors above one, failures that doom runs,
// services, failure clocks and a group already aged at t = 0, and the
// Weibull and aged-Pareto inverse-transform draws.
func pinnedFive(t testing.TB) (*core.Model, *core.State) {
	m := &core.Model{
		Service: []dist.Dist{dist.NewPareto(2.5, 5), dist.NewPareto(2.5, 4), dist.NewWeibull(1.4, 3),
			dist.NewPareto(2.5, 2), dist.NewShiftedGammaMean(0.3, 2, 1)},
		Failure: []dist.Dist{dist.NewExponential(900), dist.NewExponential(700), dist.NewWeibull(1.2, 500),
			dist.NewExponential(400), dist.NewExponential(300)},
		Transfer: func(tasks, src, dst int) dist.Dist {
			return dist.NewPareto(2.5, 3*float64(tasks))
		},
		Repl: []int{1, 2, 1, 3, 1},
	}
	p := core.NewPolicy(5)
	p[0][4], p[0][3], p[1][4] = 20, 10, 10
	s, err := core.NewState(m, []int{80, 50, 30, 25, 15}, p)
	if err != nil {
		t.Fatal(err)
	}
	s.AgeW[0], s.AgeW[3] = 1.5, 0.4
	s.AgeY[1], s.AgeY[4] = 20, 3
	s.Groups[0].Age = 2
	return m, s
}

// pinnedRebalancer ships half the gap from the longest live queue to the
// shortest, every period.
func pinnedRebalancer(period float64) *Rebalancer {
	return &Rebalancer{Period: period, Decide: func(queues []int, up []bool) core.Policy {
		hi, lo := -1, -1
		for k := range queues {
			if !up[k] {
				continue
			}
			if hi < 0 || queues[k] > queues[hi] {
				hi = k
			}
			if lo < 0 || queues[k] < queues[lo] {
				lo = k
			}
		}
		if hi < 0 || queues[hi]-queues[lo] < 2 {
			return nil
		}
		p := core.NewPolicy(len(queues))
		p[hi][lo] = (queues[hi] - queues[lo]) / 2
		return p
	}}
}

func outcomeLine(o Outcome) string {
	busy := make([]string, len(o.BusyTime))
	for i, b := range o.BusyTime {
		busy[i] = fmt.Sprintf("%016x", math.Float64bits(b))
	}
	return fmt.Sprintf("%v %016x %v %v %d %d", o.Completed, math.Float64bits(o.Time), o.Served, busy, o.FailuresSeen, o.CopiesCancelled)
}

// pinnedRun replays one scenario untraced and traced and renders it the
// way the file stores it; the traced outcomes must be the untraced ones.
func pinnedRun(t testing.TB, name string, m *core.Model, s *core.State, rb *Rebalancer) pinnedScenario {
	out := pinnedScenario{Name: name}
	oh, th := sha256.New(), sha256.New()
	var buf bytes.Buffer
	for i := 0; i < pinnedReps; i++ {
		line := outcomeLine(RunControlled(m, s, rngutil.Stream(7, i), rb))
		if i < pinnedFirst {
			out.First = append(out.First, line)
		}
		fmt.Fprintln(oh, line)
		if i >= pinnedTraced {
			continue
		}

		buf.Reset()
		tw := trace.NewWriter(&buf)
		traced := outcomeLine(RunTraced(m, s, rngutil.Stream(7, i), rb, tw, i))
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		if traced != line {
			t.Fatalf("%s rep %d: traced outcome %s, untraced %s", name, i, traced, line)
		}
		lines := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
		slices.SortFunc(lines, bytes.Compare)
		for _, l := range lines {
			th.Write(l)
			th.Write([]byte("\n"))
		}
	}
	out.OutcomesSHA = hex.EncodeToString(oh.Sum(nil))
	out.TraceSHA = hex.EncodeToString(th.Sum(nil))
	return out
}

func pinnedScenarios(t testing.TB) []pinnedScenario {
	m2, s2 := pinnedCanonical(t)
	m5, s5 := pinnedFive(t)
	return []pinnedScenario{
		pinnedRun(t, "canonical", m2, s2, nil),
		pinnedRun(t, "canonical-rebalanced", m2, s2, pinnedRebalancer(15)),
		pinnedRun(t, "five", m5, s5, nil),
		pinnedRun(t, "five-rebalanced", m5, s5, pinnedRebalancer(6)),
	}
}

// TestOutcomesPinned: the typed event loop pops the same events in the
// same (time, seq) order and draws from the same stream in the same
// order as the closure queue it replaced, so every outcome and every
// trace line is the parent's, bit for bit.
func TestOutcomesPinned(t *testing.T) {
	raw, err := os.ReadFile("testdata/outcomes_pinned.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []pinnedScenario
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := pinnedScenarios(t)
	if len(got) != len(want) {
		t.Fatalf("%d scenarios, %d pinned", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Name != w.Name {
			t.Fatalf("scenario %d is %s, pinned %s", i, g.Name, w.Name)
		}
		for j := range w.First {
			if g.First[j] != w.First[j] {
				t.Errorf("%s rep %d:\n got    %s\n pinned %s", g.Name, j, g.First[j], w.First[j])
				break
			}
		}
		if g.OutcomesSHA != w.OutcomesSHA {
			t.Errorf("%s: digest of %d outcomes %s, pinned %s", g.Name, pinnedReps, g.OutcomesSHA, w.OutcomesSHA)
		}
		if g.TraceSHA != w.TraceSHA {
			t.Errorf("%s: trace digest %s, pinned %s", g.Name, g.TraceSHA, w.TraceSHA)
		}
	}
}

// TestTraceBytesAreDeterministic: a doomed realization with a dozen
// groups still in flight at capture end writes the same bytes every
// time — the censored transfers come out in transfer-id order, not in
// the order a map happens to iterate.
func TestTraceBytesAreDeterministic(t *testing.T) {
	m := &core.Model{
		Service: []dist.Dist{dist.NewDeterministic(10), dist.NewDeterministic(10), dist.NewDeterministic(10),
			dist.NewDeterministic(10), dist.NewDeterministic(10)},
		Failure: []dist.Dist{dist.NewDeterministic(0.5), dist.Never{}, dist.Never{}, dist.Never{}, dist.Never{}},
		Transfer: func(tasks, src, dst int) dist.Dist {
			return dist.NewDeterministic(5 + float64(tasks))
		},
	}
	p := core.NewPolicy(5)
	for i := 1; i < 5; i++ {
		for j := 1; j < 5; j++ {
			if i != j {
				p[i][j] = i + j
			}
		}
	}
	s, err := core.NewState(m, []int{20, 30, 30, 30, 30}, p)
	if err != nil {
		t.Fatal(err)
	}
	capture := func() []byte {
		var buf bytes.Buffer
		tw := trace.NewWriter(&buf)
		if o := RunTraced(m, s, rngutil.Stream(1, 0), nil, tw, 0); o.Completed || o.Time != 0.5 {
			t.Fatalf("realization not doomed at 0.5: %+v", o)
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := capture()
	if n := bytes.Count(first, []byte(`"censored":true`)); n < 12 {
		t.Fatalf("%d censored lines, want the 12 in-flight groups among them:\n%s", n, first)
	}
	for i := 0; i < 8; i++ {
		if again := capture(); !bytes.Equal(again, first) {
			t.Fatalf("same seed, different trace bytes:\n%s\nvs\n%s", first, again)
		}
	}
}

// TestRunAllocations: a realization allocates its bookkeeping once — the
// event loop, the draws and the handlers allocate nothing per event, so
// the count does not grow with the number of tasks.
func TestRunAllocations(t *testing.T) {
	m, s := pinnedCanonical(t)
	big, err := core.NewState(m, []int{200, 100}, core.Policy2(30, 0))
	if err != nil {
		t.Fatal(err)
	}
	r := rngutil.Stream(1, 0)
	small := testing.AllocsPerRun(50, func() { Run(m, s, r) })
	large := testing.AllocsPerRun(50, func() { Run(m, big, r) })
	if small > 40 || large > small {
		t.Fatalf("Run allocates %v objects for 150 tasks and %v for 300, want ≤ 40 and no growth", small, large)
	}
}
