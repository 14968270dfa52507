package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dtr/internal/obs"
	"dtr/internal/stat"
)

// A workload names one traffic mix. Its setup generates every input from
// the seed, boots the stack the way the daemons wire it and warms it;
// the closed loop then drives the returned instance.
type workload struct {
	name string
	// clients is the closed-loop width: each client sends its next
	// request only after the previous reply. The planning and observation
	// workloads use 2 (controllers such as dtradapt wait for each reply,
	// and the container has 2 CPUs); lab_sweep uses 1 because its single
	// operation already shards over every core, plan_warm 1 because it
	// runs on one P.
	clients int
	// procs, when set, is the GOMAXPROCS of the workload's timed region,
	// and window the number of consecutive operations in each of the
	// windows that region is reported by (see windowStat). Only plan_warm
	// sets them: its 60-µs operations resolve the host's speed changes
	// instead of averaging over them. A workload without windows is timed
	// beside the host probe instead (see probe.go).
	procs  int
	window int
	setup  func(seed uint64, p profile) (*instance, error)
}

// instance is one booted, warmed stack plus its generated unit list.
type instance struct {
	// units is the length of the seeded unit list; unit i is a pure
	// function of (seed, i). A cyclic list wraps when exhausted (every
	// unit is a cache hit anyway); otherwise the loop ends early.
	units  int
	cyclic bool
	// run executes unit i, recording one or more operations on rec.
	run func(i int, rec *recorder)
	// finish, when set, is the end-of-run cross-check over the whole
	// timed region (e.g. "no request was recomputed").
	finish func() error
	// inputSHA is the hex SHA-256 of the generated inputs.
	inputSHA string
	// counts describes the generated list ("units", "keys", ...).
	counts map[string]int
	// reg is the registry the booted stack reports into.
	reg   *obs.Registry
	close func()
}

// recorder collects one client's operations.
type recorder struct {
	start    time.Time       // start of the timed region
	lat      []time.Duration // per operation: its latency
	done     []time.Duration // per operation: completion, since start
	failed   int
	firstErr error
	// window, when set, makes op note the process's CPU time after every
	// window-th operation: cpu[k] is read as window k ends.
	window int
	cpu    []time.Duration
	// tr is nil in the untraced run; units emit spans (and run the
	// per-layer replay) only when it is set.
	tr *tracer
}

// op records one finished operation: its latency and whether it errored,
// returned non-200 or failed its correctness check.
func (r *recorder) op(d time.Duration, err error) {
	r.lat = append(r.lat, d)
	r.done = append(r.done, time.Since(r.start))
	if r.window > 0 && len(r.lat)%r.window == 0 {
		r.cpu = append(r.cpu, processCPU())
	}
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
}

// loopResult is what one pass of the closed loop measured.
type loopResult struct {
	lat       []time.Duration // every operation, sorted ascending
	attempted int
	failed    int
	firstErr  error
	wall      time.Duration // first send → last completion
	allocB    uint64        // runtime TotalAlloc delta
	mallocs   uint64        // runtime Mallocs delta
	cpu       time.Duration // process user+system CPU delta
	gcCPU     float64       // GC share of the available CPU over the pass
	units     int           // units started
	// peakRSSMB is the resident-set high-water mark when the last client
	// finished, before this program sorts and windows what it recorded.
	peakRSSMB float64
	// windows holds one entry per complete window of a windowed pass.
	windows []windowStat
	// host is what the probe saw during a probed pass.
	host hostState
}

// windowStat is what one window — `window` consecutive operations of one
// client — measured. The shared host slows this VM by about 1.6× in
// episodes that last from milliseconds to minutes. An operation of
// 100 ms or more averages over the short episodes, but a run of 60-µs
// cache hits resolves them, and its median latency lands on whichever
// state held for more than half of the run: the same code reads 0.056 ms
// in one run and 0.095 ms in the next. So such a run is cut into windows
// and reports the quiet ones: those whose median latency is within
// quietShare of the best window's.
type windowStat struct {
	p50, tail time.Duration
	opsPerS   float64
	cpuPerOp  float64 // process user+system CPU ÷ operations, ms
}

// quietShare is how far above the best window's median latency a
// window's may lie for the window to count as undisturbed; the host's
// slow state lies 60 % above.
const quietShare = 0.20

// windowTailPct is the percentile a window's tail stands for: the
// highest customary one below the hits that overlap a garbage-collection
// cycle. Those, the slowest 1–3 % depending on how the collector paced
// itself in that run, take 0.25 ms and more where the 95th percentile
// takes 0.10 ms, and the 98th and 99th percentiles, which stand on that
// step, spread up to half again as much from run to run as the 95th.
const windowTailPct = 95

// cutWindows cuts what one client recorded into its complete windows.
// cpu0 is the process's CPU time when the timed region began; the CPU
// time of a window is the whole process's, so it is the window's own
// only in a pass with one client.
func cutWindows(rec *recorder, cpu0 time.Duration) []windowStat {
	n := rec.window
	out := make([]windowStat, len(rec.cpu))
	l := make([]time.Duration, n)
	var from time.Duration // when the window began, into the timed region
	for w, cpu := range rec.cpu {
		copy(l, rec.lat[w*n:(w+1)*n])
		slices.Sort(l)
		to := rec.done[(w+1)*n-1]
		out[w] = windowStat{
			p50:      l[n/2],
			tail:     l[n*windowTailPct/100],
			opsPerS:  float64(n) / (to - from).Seconds(),
			cpuPerOp: ms(cpu-cpu0) / float64(n),
		}
		from, cpu0 = to, cpu
	}
	return out
}

// runLoop drives inst with `clients` closed-loop clients until `limit`
// has elapsed or maxUnits units were started (0 = no unit limit). A unit
// that started before the limit runs to completion. A non-zero window
// also reports the pass in windows of that many operations, and a probe
// is timed beside the clients for as long as they run (see probe.go).
func runLoop(inst *instance, clients int, limit time.Duration, maxUnits int, window int, probe *hostProbe, tr *tracer) loopResult {
	recs := make([]*recorder, clients)
	var next atomic.Int64
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	cpu0, gc0 := processCPU(), gcCPUSeconds()
	start := time.Now()
	deadline := start.Add(limit)
	stopProbe, probed := make(chan struct{}), make(chan []time.Duration, 1)
	if probe != nil {
		go runProbe(probe.run, stopProbe, probed)
	}
	var wg sync.WaitGroup
	for c := range recs {
		rec := &recorder{start: start, window: window, tr: tr}
		recs[c] = rec
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if maxUnits > 0 && i >= maxUnits {
					return
				}
				if i >= inst.units {
					if !inst.cyclic {
						return
					}
					i %= inst.units
				}
				inst.run(i, rec)
			}
		}()
	}
	wg.Wait()
	res := loopResult{wall: time.Since(start), cpu: processCPU() - cpu0, peakRSSMB: peakRSSMB()}
	if probe != nil {
		close(stopProbe)
		res.host = readHost(<-probed)
		res.cpu -= res.host.spent
	}
	for _, rec := range recs {
		res.windows = append(res.windows, cutWindows(rec, cpu0)...)
	}
	runtime.ReadMemStats(&ms1)
	res.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	if probe != nil {
		res.allocB -= uint64(res.host.probes) * probe.allocB
	}
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	if avail := res.wall.Seconds() * float64(runtime.GOMAXPROCS(0)); avail > 0 {
		res.gcCPU = (gcCPUSeconds() - gc0) / avail
	}
	res.units = int(next.Load())
	if maxUnits > 0 && res.units > maxUnits {
		res.units = maxUnits
	}
	for _, rec := range recs {
		res.lat = append(res.lat, rec.lat...)
		res.failed += rec.failed
		if res.firstErr == nil {
			res.firstErr = rec.firstErr
		}
	}
	res.attempted = len(res.lat)
	if inst.finish != nil {
		if err := inst.finish(); err != nil {
			// A whole-run violation cannot be pinned on one operation:
			// every operation of the run counts as failed.
			res.failed = res.attempted
			if res.firstErr == nil {
				res.firstErr = err
			}
		}
	}
	slices.Sort(res.lat)
	return res
}

// gcCPUSeconds is the CPU time the garbage collector has used so far
// (updated by the runtime at the end of each cycle).
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// processCPU returns the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark: ru_maxrss,
// the number /proc/self/status shows as VmHWM (kilobytes on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// tailIndex picks the tail order statistic of n sorted samples: the one
// with ten samples above it, capped at the 99th percentile so the tail
// of a 300 000-sample run is a percentile rather than a near-maximum,
// and the maximum when n < 21. It returns the index and the percentile
// that index stands for.
func tailIndex(n int) (idx int, percentile float64) {
	if n < 21 {
		return n - 1, 100
	}
	above := 10
	if n/100 > above {
		above = n / 100
	}
	idx = n - 1 - above
	return idx, 100 * float64(idx+1) / float64(n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 { return stat.Quantile(xs, 0.5) }

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd turns one untraced pass into the seven end-to-end metrics.
// The four time-like ones are taken over the whole pass and scaled to
// the undisturbed host by what the probe saw (hostState.factor) or, when
// the pass was windowed, as the median over its quiet windows.
func endToEnd(res loopResult, setupS float64) map[string]metric {
	ops := float64(res.attempted)
	ti, _ := tailIndex(len(res.lat))
	host := res.host.factor()
	m := map[string]metric{
		"setup_s":         {setupS, "s"},
		"ops_per_s":       {float64(res.attempted-res.failed) / res.wall.Seconds() / host, "1/s"},
		"latency_p50_ms":  {ms(res.lat[len(res.lat)/2]) * host, "ms"},
		"latency_tail_ms": {ms(res.lat[ti]) * host, "ms"},
		"alloc_mb_per_op": {float64(res.allocB) / 1e6 / ops, "MB"},
		"cpu_ms_per_op":   {ms(res.cpu) / ops * host, "ms"},
		"peak_rss_mb":     {res.peakRSSMB, "MB"},
	}
	if quiet := quietWindows(res.windows); len(quiet) > 0 {
		over := func(f func(windowStat) float64) float64 {
			xs := make([]float64, len(quiet))
			for i, w := range quiet {
				xs[i] = f(w)
			}
			return median(xs)
		}
		m["ops_per_s"] = metric{over(func(w windowStat) float64 { return w.opsPerS }), "1/s"}
		m["latency_p50_ms"] = metric{over(func(w windowStat) float64 { return ms(w.p50) }), "ms"}
		m["latency_tail_ms"] = metric{over(func(w windowStat) float64 { return ms(w.tail) }), "ms"}
		m["cpu_ms_per_op"] = metric{over(func(w windowStat) float64 { return w.cpuPerOp }), "ms"}
	}
	return m
}

// quietWindows returns the windows whose median latency is within
// quietShare of the best window's.
func quietWindows(ws []windowStat) []windowStat {
	if len(ws) == 0 {
		return nil
	}
	best := ws[0].p50
	for _, w := range ws {
		best = min(best, w.p50)
	}
	var quiet []windowStat
	for _, w := range ws {
		if float64(w.p50) <= float64(best)*(1+quietShare) {
			quiet = append(quiet, w)
		}
	}
	return quiet
}

func failure(res loopResult) string {
	if res.firstErr == nil {
		return ""
	}
	return fmt.Sprintf("%d of %d operations failed; first: %v", res.failed, res.attempted, res.firstErr)
}
