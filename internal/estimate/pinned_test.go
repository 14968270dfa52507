package estimate

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"

	"dtr/dist"
)

// pinnedTake is one row of testdata/take_pinned.json: a snapshot Take
// returned at commit 57d0782, when the warm-up still scheduled on the
// generic heap of the deleted internal/des package, with every SentAt as
// its IEEE-754 bits. The file is not regenerable from the code under
// test on purpose.
type pinnedTake struct {
	Delay       float64    `json:"delay"`
	Period      float64    `json:"period"`
	Realization int        `json:"realization"`
	Queues      []int      `json:"queues"`
	Estimates   [][]int    `json:"estimates"`
	SentAt      [][]uint64 `json:"sent_at_bits"`
}

// The pinned grid: three-server Pareto model (model3), packet delays with
// Pareto (α = 2.5) laws of these means, 0 meaning instantaneous packets.
var (
	pinnedDelays  = []float64{0, 0.3, 2, 8, 24}
	pinnedPeriods = []float64{0.5, 2, 5}
)

const (
	pinnedRealizations = 40
	pinnedWarmup       = 25.0
)

func takePinnedGrid(t *testing.T) []pinnedTake {
	var rows []pinnedTake
	for _, delay := range pinnedDelays {
		for _, period := range pinnedPeriods {
			e := &Exchange{Model: model3(), Period: period, Seed: 11}
			if delay > 0 {
				law := dist.FamilyPareto1.WithMean(delay)
				e.PacketDelay = func(src, dst int) dist.Dist { return law }
			}
			for r := 0; r < pinnedRealizations; r++ {
				snap, err := e.Take([]int{30, 20, 10}, pinnedWarmup, r)
				if err != nil {
					t.Fatal(err)
				}
				row := pinnedTake{Delay: delay, Period: period, Realization: r,
					Queues: snap.Queues, Estimates: snap.Estimates}
				for _, ages := range snap.SentAt {
					bits := make([]uint64, len(ages))
					for j, a := range ages {
						bits[j] = math.Float64bits(a)
					}
					row.SentAt = append(row.SentAt, bits)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows
}

// TestTakePinned holds Take to the snapshots it returned on des.Queue:
// the warm-up's event order — ties popping in scheduling order — decides
// which packet lands last and so every estimate and send time.
func TestTakePinned(t *testing.T) {
	raw, err := os.ReadFile("testdata/take_pinned.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []pinnedTake
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := takePinnedGrid(t)
	if len(got) != len(want) {
		t.Fatalf("%d snapshots, pinned %d", len(got), len(want))
	}
	for k, w := range want {
		g := got[k]
		same := g.Delay == w.Delay && g.Period == w.Period && g.Realization == w.Realization &&
			slices.Equal(g.Queues, w.Queues) &&
			slices.EqualFunc(g.Estimates, w.Estimates, slices.Equal) &&
			slices.EqualFunc(g.SentAt, w.SentAt, slices.Equal)
		if !same {
			t.Fatalf("snapshot %d (delay %g, period %g, realization %d):\n got %+v\nwant %+v",
				k, w.Delay, w.Period, w.Realization, g, w)
		}
	}
}
