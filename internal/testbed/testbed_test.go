package testbed

import (
	"net"
	"sync"
	"testing"
	"time"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/obs"
	"dtr/internal/stat"
)

// fastModel is a small 2-server model with short times so tests run in
// milliseconds of wall clock at the default scale.
func fastModel(reliable bool) *core.Model {
	fail := func(mean float64) dist.Dist {
		if reliable {
			return dist.Never{}
		}
		return dist.NewExponential(mean)
	}
	return &core.Model{
		Service: []dist.Dist{
			dist.NewPareto(2.614, 4.858), // the paper's fitted server-1 law
			dist.NewPareto(2.5, 2.357),
		},
		Failure: []dist.Dist{fail(300), fail(150)},
		FN: func(src, dst int) dist.Dist {
			return dist.NewShiftedGammaMean(0.1, 2, 0.3)
		},
		Transfer: func(tasks, src, dst int) dist.Dist {
			return dist.NewShiftedGammaMean(0.4, 2, 1.2*float64(tasks))
		},
	}
}

func TestRunCompletesReliableWorkload(t *testing.T) {
	tb := &Testbed{Model: fastModel(true), Scale: 200 * time.Microsecond, Seed: 1}
	out, err := tb.Run([]int{6, 3}, core.Policy2(2, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatal("reliable workload must complete")
	}
	if out.Served[0]+out.Served[1] != 9 {
		t.Fatalf("served %v, want 9 total", out.Served)
	}
	if out.Time <= 0 {
		t.Fatalf("completion time %g", out.Time)
	}
	if len(out.ServiceSamples[0])+len(out.ServiceSamples[1]) != 9 {
		t.Fatalf("service samples: %v", out.ServiceSamples)
	}
	if len(out.TransferSamples[0]) != 1 || len(out.TransferSamples[1]) != 1 {
		t.Fatalf("transfer samples: %v", out.TransferSamples)
	}
}

func TestRunTaskConservationAcrossTransfers(t *testing.T) {
	tb := &Testbed{Model: fastModel(true), Scale: 200 * time.Microsecond, Seed: 2}
	// Ship everything from server 1 to server 2.
	out, err := tb.Run([]int{5, 0}, core.Policy2(5, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed || out.Served[1] != 5 || out.Served[0] != 0 {
		t.Fatalf("all tasks should be served by server 2: %+v", out)
	}
}

func TestRunRealizationTimePlausible(t *testing.T) {
	// One server, serial service: the model time must be near the sum of
	// the service draws. Wall timers only overshoot, so the lower bound
	// is tight; each task is due at the previous one's deadline, so
	// overshoots do not add up and the upper bound allows the last
	// timer's and the completion report's slop only (8 ms of wall).
	tb := &Testbed{Model: fastModel(true), Scale: 2 * time.Millisecond, Seed: 3}
	out, err := tb.Run([]int{4, 0}, core.Policy2(0, 0), 2)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, w := range out.ServiceSamples[0] {
		sum += w
	}
	if out.Time < 0.95*sum || out.Time > sum+4 {
		t.Fatalf("completion time %g vs serial service sum %g", out.Time, sum)
	}
}

func TestFailureDoomsWorkload(t *testing.T) {
	m := fastModel(true)
	m.Failure = []dist.Dist{dist.NewDeterministic(0.5), dist.Never{}}
	m.Service = []dist.Dist{dist.NewDeterministic(10), dist.NewDeterministic(10)}
	tb := &Testbed{Model: m, Scale: 100 * time.Microsecond, Seed: 4}
	out, err := tb.Run([]int{2, 0}, core.Policy2(0, 0), 3)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed {
		t.Fatal("failure before service should doom the run")
	}
}

// TestGroupToDeadServerDooms: a group that arrives at a server after
// its failure dooms the run. The failure (0.5 units) and the arrival
// (100 units) lie about 20 ms of wall clock apart, so a loaded host's
// late timers cannot reorder them.
func TestGroupToDeadServerDooms(t *testing.T) {
	m := fastModel(true)
	m.Failure = []dist.Dist{dist.Never{}, dist.NewDeterministic(0.5)}
	m.Service = []dist.Dist{dist.NewDeterministic(0.2), dist.NewDeterministic(0.2)}
	m.Transfer = func(tasks, src, dst int) dist.Dist { return dist.NewDeterministic(100) }
	tb := &Testbed{Model: m, Scale: 200 * time.Microsecond, Seed: 5}
	out, err := tb.Run([]int{1, 0}, core.Policy2(1, 0), 4)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed {
		t.Fatal("group delivered to a dead server should doom the run")
	}
}

// TestNeverServiceDooms: a +Inf service draw holds its task for good, so
// server 2's failure with that task queued dooms the run, as
// internal/sim counts it; the task is never served at once.
func TestNeverServiceDooms(t *testing.T) {
	m := fastModel(true)
	m.Service = []dist.Dist{dist.NewDeterministic(0.2), dist.Never{}}
	m.Failure = []dist.Dist{dist.Never{}, dist.NewDeterministic(20)}
	tb := &Testbed{Model: m, Scale: 200 * time.Microsecond, Seed: 6}
	out, err := tb.Run([]int{1, 1}, core.Policy2(0, 0), 5)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed || out.Served[1] != 0 {
		t.Fatalf("a task with an infinite service draw was served (completed at %g model units, served %v)",
			out.Time, out.Served)
	}
}

// TestNeverTransferDooms: a +Inf transfer draw never delivers its group,
// so the destination's failure with the group in flight dooms the run.
func TestNeverTransferDooms(t *testing.T) {
	m := fastModel(true)
	m.Service = []dist.Dist{dist.NewDeterministic(0.2), dist.NewDeterministic(0.2)}
	m.Failure = []dist.Dist{dist.Never{}, dist.NewDeterministic(20)}
	m.Transfer = func(tasks, src, dst int) dist.Dist { return dist.Never{} }
	tb := &Testbed{Model: m, Scale: 200 * time.Microsecond, Seed: 7}
	out, err := tb.Run([]int{1, 0}, core.Policy2(1, 0), 6)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed || out.Served[1] != 0 {
		t.Fatalf("a group with an infinite transfer draw arrived (completed at %g model units, served %v)",
			out.Time, out.Served)
	}
}

// TestSendToClosedPeerCounts: a delivery whose peer's listener is gone
// moves dtr_testbed_send_failures_total.
func TestSendToClosedPeerCounts(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	var wg sync.WaitGroup
	s := &node{addrs: []string{addr}, stopped: make(chan struct{}), scale: time.Millisecond, wg: &wg}
	s.sendAfter(0, 0, message{Kind: "group", Tasks: 1})
	wg.Wait()
	if n := reg.Counter("dtr_testbed_send_failures_total").Value(); n != 1 {
		t.Fatalf("a send to a closed peer counted %d failures, want 1", n)
	}
}

// TestEmpiricalReliabilityTracksModel: many short realizations of a
// failure-prone workload; the empirical completion rate must agree with a
// Monte-Carlo estimate of the same model (the Fig. 4(c) validation loop
// in miniature).
func TestEmpiricalReliabilityTracksModel(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock experiment")
	}
	m := fastModel(false)
	// Shrink the workload so each realization is fast. The scale must be
	// coarse enough that per-sleep timer overshoot (~1 ms on a loaded
	// machine) does not materially inflate the service times.
	tb := &Testbed{Model: m, Scale: time.Millisecond, Seed: 6}
	initial := []int{6, 3}
	pol := core.Policy2(2, 0)
	reps := 40
	completed := 0
	for i := 0; i < reps; i++ {
		out, err := tb.Run(initial, pol, i)
		if err != nil {
			t.Fatal(err)
		}
		if out.Completed {
			completed++
		}
	}
	p, half := stat.ProportionCI(completed, reps, 0.99)
	// The model-level reliability of this workload is ~0.87 (the testbed
	// reads ~0.85 over 200 realizations); the testbed must agree within
	// its (wide) confidence interval plus a margin for residual timer
	// overshoot in the transfer clocks, which only lowers the completion
	// rate. At a true rate of 0.82 the floor fails about once in 50 000.
	if p+half < 0.75 || p-half > 0.995 {
		t.Fatalf("testbed reliability %g ± %g implausible", p, half)
	}
}

func TestMeasureWallSamples(t *testing.T) {
	m := fastModel(true)
	tb := &Testbed{Model: m, Scale: time.Millisecond, Seed: 7, MeasureWall: true}
	out, err := tb.Run([]int{3, 0}, core.Policy2(0, 0), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed || len(out.ServiceSamples[0]) != 3 {
		t.Fatalf("outcome: %+v", out)
	}
	// Wall-measured samples sit at or slightly above the support minimum
	// of the Pareto law (xm ≈ 3), never below by more than jitter.
	for _, w := range out.ServiceSamples[0] {
		if w < 2.5 {
			t.Fatalf("measured service %g below the Pareto support", w)
		}
	}
}

func TestRunValidation(t *testing.T) {
	tb := &Testbed{Model: fastModel(true), Seed: 8}
	if _, err := tb.Run([]int{1}, core.Policy2(0, 0), 0); err == nil {
		t.Fatal("wrong allocation shape should error")
	}
	if _, err := tb.Run([]int{1, 1}, core.Policy2(5, 0), 0); err == nil {
		t.Fatal("overdrawn policy should error")
	}
}
