package core

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"dtr/dist"
)

// pinnedEntry is one row of testdata/two_server_pinned.json: a metric of
// a two-server configuration as the former fixed-[2]-array solver
// computed it (commit 9b04f59, the last one that carried that copy), with
// the value's IEEE-754 bits in hex and the solver's States() afterwards.
// The file is not regenerable from the code under test on purpose: it is
// the record of the deleted implementation.
type pinnedEntry struct {
	Model   string `json:"model"`
	State   string `json:"state"`
	Metric  string `json:"metric"`
	TrackFN bool   `json:"track_fn"`
	Bits    string `json:"bits"`
	States  int    `json:"states"`
}

const pinnedDeadline = 3.0

func pinnedModels() map[string]*Model {
	return map[string]*Model{
		"bench":    benchModel(),
		"reliable": reliable2(dist.NewPareto(2.5, 1), dist.NewUniform(0.4, 1.2)),
		"exp-fn": twoServerModel(dist.NewPareto(2.5, 1), dist.NewExponential(1),
			dist.NewExponential(8), dist.NewExponential(12), 0.5),
		"aged-fn": {
			Service: []dist.Dist{dist.NewUniform(0.5, 1.5), dist.NewShiftedExponential(0.2, 0.7)},
			Failure: []dist.Dist{dist.NewExponential(6), dist.NewExponential(9)},
			FN: func(src, dst int) dist.Dist {
				return dist.NewShiftedExponential(0.1, 0.3)
			},
			Transfer: func(tasks, src, dst int) dist.Dist {
				return dist.NewUniform(0.2, 0.2+0.5*float64(tasks))
			},
		},
	}
}

// pinnedStates covers zero, one and two in-flight groups, non-zero
// initial ages, and a failed server whose notice is still in transit.
func pinnedStates(t testing.TB, m *Model) map[string]*State {
	mk := func(initial []int, p Policy) *State {
		s, err := NewState(m, initial, p)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	aged := mk([]int{3, 2}, Policy2(1, 0))
	aged.AgeW[0], aged.AgeY[1], aged.Groups[0].Age = 0.33, 0.5, 0.27
	down := mk([]int{2, 0}, Policy2(0, 0))
	down.Up[1] = false
	down.FNs = []FNPacket{{Src: 1, Dst: 0, Age: 0.2}}
	return map[string]*State{
		"g0":   mk([]int{2, 2}, Policy2(0, 0)),
		"g1":   mk([]int{3, 2}, Policy2(1, 0)),
		"g2":   mk([]int{2, 2}, Policy2(1, 1)),
		"aged": aged,
		"down": down,
	}
}

// pinnedValue evaluates one entry's metric on a fresh solver.
func pinnedValue(t testing.TB, e pinnedEntry) (float64, int) {
	m := pinnedModels()[e.Model]
	if m == nil {
		t.Fatalf("unknown pinned model %q", e.Model)
	}
	s := pinnedStates(t, m)[e.State]
	if s == nil {
		t.Fatalf("unknown pinned state %q", e.State)
	}
	sv, err := NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	sv.Step, sv.Horizon, sv.AgeCap, sv.TrackFN = 0.1, 20, 10, e.TrackFN
	var v float64
	switch e.Metric {
	case "reliability":
		v, err = sv.Reliability(s)
	case "qos":
		v, err = sv.QoS(s, pinnedDeadline)
	case "mean":
		v, err = sv.MeanTime(s)
	default:
		t.Fatalf("unknown pinned metric %q", e.Metric)
	}
	if err != nil {
		t.Fatalf("%+v: %v", e, err)
	}
	return v, sv.States()
}

func loadPinned(t *testing.T) []pinnedEntry {
	raw, err := os.ReadFile("testdata/two_server_pinned.json")
	if err != nil {
		t.Fatal(err)
	}
	var entries []pinnedEntry
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("empty pinned table")
	}
	return entries
}

// checkPinned replays the pinned entries selected by keep and demands the
// exact bits and memo footprint of the two-server copy.
func checkPinned(t *testing.T, keep func(pinnedEntry) bool) {
	n := 0
	for _, e := range loadPinned(t) {
		if !keep(e) {
			continue
		}
		n++
		v, states := pinnedValue(t, e)
		if got := fmt.Sprintf("%016x", math.Float64bits(v)); got != e.Bits || states != e.States {
			t.Errorf("%s/%s/%s track_fn=%v: bits %s states %d, pinned %s / %d",
				e.Model, e.State, e.Metric, e.TrackFN, got, states, e.Bits, e.States)
		}
	}
	if n == 0 {
		t.Fatal("no pinned entry selected")
	}
}

// TestNSolverMatchesTwoServerSolver: on two-server inputs the n-server
// recursion is the algorithm the fixed-array copy ran — same clock order,
// same cell loop, same summation order — so mean time and QoS must come
// out bit for bit, with the same number of memoized states.
func TestNSolverMatchesTwoServerSolver(t *testing.T) {
	checkPinned(t, func(e pinnedEntry) bool { return e.Metric != "reliability" })
}

// TestNSolverReliabilityMatchesTwoServerSolver is the reliability half of
// the pinned table (failure clocks, doomed states, FN traffic).
func TestNSolverReliabilityMatchesTwoServerSolver(t *testing.T) {
	checkPinned(t, func(e pinnedEntry) bool { return e.Metric == "reliability" })
}
