package sim

import (
	"math/rand/v2"
	"testing"

	"dtr/internal/core"
	"dtr/internal/rngutil"
	"dtr/modelspec"
)

// warmRun is a worker's realization state as Estimate keeps it.
func warmRun(m *core.Model, s *core.State, rb *Rebalancer) *run {
	rn := newRun(m, s, rb, nil)
	rn.r = rand.New(&rn.pcg)
	return rn
}

// TestReusedRunMatchesFresh: one run reset and reseeded for replication
// after replication — the way an Estimate worker takes them, out of
// order — gives every replication the outcome a fresh RunControlled on
// rngutil.Stream(seed, i) gives it.
func TestReusedRunMatchesFresh(t *testing.T) {
	m2, s2 := pinnedCanonical(t)
	m5, s5 := pinnedFive(t)
	for _, sc := range []struct {
		name string
		m    *core.Model
		s    *core.State
		rb   *Rebalancer
	}{
		{"canonical", m2, s2, nil},
		{"five", m5, s5, nil},
		{"five-rebalanced", m5, s5, pinnedRebalancer(6)},
	} {
		rn := warmRun(sc.m, sc.s, sc.rb)
		for j := 0; j < 400; j++ {
			i := (j * 7) % 400
			rngutil.Reseed(&rn.pcg, 7, i)
			rn.realize(i)
			got := outcomeLine(rn.out)
			if want := outcomeLine(RunControlled(sc.m, sc.s, rngutil.Stream(7, i), sc.rb)); got != want {
				t.Fatalf("%s rep %d after %d reused: %s, fresh %s", sc.name, i, j, got, want)
			}
		}
	}
}

// TestWarmRunAllocatesNothing: once a worker's state has run one
// replication, the next ones — reseed, reset, events, draws — allocate
// nothing, on the canonical run, the replicated five-server fleet and
// the testbed spec with its shifted-gamma transfers.
func TestWarmRunAllocatesNothing(t *testing.T) {
	m2, s2 := pinnedCanonical(t)
	m5, s5 := pinnedFive(t)
	mt, initial, err := modelspec.Load("../../examples/specs/testbed.json")
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.NewState(mt, initial, core.Policy2(10, 0))
	if err != nil {
		t.Fatal(err)
	}
	for name, sc := range map[string]struct {
		m *core.Model
		s *core.State
	}{"canonical": {m2, s2}, "five": {m5, s5}, "testbed": {mt, st}} {
		rn := warmRun(sc.m, sc.s, nil)
		rn.realize(0)
		i := 0
		if n := testing.AllocsPerRun(200, func() {
			i++
			rngutil.Reseed(&rn.pcg, 1, i)
			rn.realize(i)
		}); n != 0 {
			t.Errorf("%s: a warm replication allocates %v objects, want 0", name, n)
		}
	}
}
