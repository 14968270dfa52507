package main

import (
	"runtime"
	"slices"
	"time"
)

// The host probe. An operation of 100 ms or more cannot be reported by
// quiet windows: the shared host's slow state comes and goes within
// milliseconds, and no operation of that length escapes it. So while such
// a workload's timed region runs, a goroutine of this program times one
// fixed micro-operation of the repository's own solver — a single lattice
// point on a solver built before the region began — every probeEvery. The
// probe is short enough to be cut into quiet and disturbed samples the
// way plan_warm's windows are, and what the host did to the probe over
// the run is what it did to the operations that ran beside it: on the
// seed, the run-to-run changes of the probe's median account for 75–92 %
// of those of the planning workloads' cpu_ms_per_op, with a slope of
// 0.84–1.08 (bench/README.md, "Steadiness").

// probeEvery is the pause between two probes: at 0.55 ms a probe, the
// probe takes 5 % of one core.
const probeEvery = 10 * time.Millisecond

// hostProbe is the probe and the bytes one call of it allocates, which
// the pass takes out of its own allocation count.
type hostProbe struct {
	run    func()
	allocB uint64
}

// newProbe builds the probed solver and returns the probe: one lattice
// point with its transforms already cached.
func newProbe(p profile) (*hostProbe, error) {
	sv, err := severeSolver(p.microGrid, 1)
	if err != nil {
		return nil, err
	}
	run := func() { _, _ = sv.MeanTime(100, 50, 20, 5) }
	run()
	const calls = 16
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		run()
	}
	runtime.ReadMemStats(&m1)
	return &hostProbe{run: run, allocB: (m1.TotalAlloc - m0.TotalAlloc) / calls}, nil
}

// runProbe times probe every probeEvery until stop is closed, then sends
// what it measured.
func runProbe(probe func(), stop <-chan struct{}, out chan<- []time.Duration) {
	var samples []time.Duration
	for {
		select {
		case <-stop:
			out <- samples
			return
		default:
		}
		t0 := time.Now()
		probe()
		samples = append(samples, time.Since(t0))
		time.Sleep(probeEvery)
	}
}

// hostState is what the probe saw of the host during one pass.
type hostState struct {
	probes int
	// spent is the time all probes took together, which the pass takes
	// out of its CPU time.
	spent time.Duration
	// level is the median probe and quiet the median of the probes within
	// quietShare of the fastest one: the probe on the host as it was, and
	// on the host left alone.
	level, quiet time.Duration
}

// readHost sorts the probe samples of one pass and reads them.
func readHost(s []time.Duration) hostState {
	if len(s) == 0 {
		return hostState{}
	}
	slices.Sort(s)
	n := 0
	for n < len(s) && float64(s[n]) <= float64(s[0])*(1+quietShare) {
		n++
	}
	h := hostState{probes: len(s), level: s[len(s)/2], quiet: s[n/2]}
	for _, d := range s {
		h.spent += d
	}
	return h
}

// factor is the share of a measured time that the undisturbed host
// would have taken: quiet ÷ level, 1 when the pass was not probed.
func (h hostState) factor() float64 {
	if h.level == 0 {
		return 1
	}
	return float64(h.quiet) / float64(h.level)
}
