// Package sim is the Monte-Carlo simulator of the DCS: a discrete-event
// realization of exactly the stochastic model the analytic solvers
// evaluate (general service, failure and transfer laws; permanent
// failures; no task recovery; reliable message passing). The paper uses
// Monte-Carlo simulation to evaluate multi-server policies (Table II) and
// to validate the testbed predictions (Fig. 4(c)); this package plays the
// same role here, and doubles as an independent check on the analytic
// solvers in the tests.
package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/obs"
	"dtr/internal/par"
	"dtr/internal/rngutil"
	"dtr/internal/stat"
	"dtr/internal/trace"
)

// Outcome is the result of one simulated realization.
type Outcome struct {
	// Completed reports that every task was served (T < ∞).
	Completed bool
	// Time is the workload execution time when Completed (the instant the
	// last task finished), otherwise the time at which completion became
	// impossible.
	Time float64
	// Served counts tasks served per server.
	Served []int
	// BusyTime is the total time each server spent serving (the paper's
	// resource-utilization discussion in §III-A compares how evenly
	// optimal policies keep the servers busy).
	BusyTime []float64
	// FailuresSeen counts servers that failed before the run ended.
	FailuresSeen int
	// CopiesCancelled counts replicated service copies cancelled because
	// a sibling copy finished first (cancel-on-first-complete). Always 0
	// when no server has a replication factor above 1.
	CopiesCancelled int
}

// Rebalancer re-runs a DTR decision periodically during execution,
// generalizing the canonical single-shot reallocation to the paper's
// framing of DTR as a run-time control action. Decide sees the true
// queue lengths and liveness (perfect, instantaneous information — an
// idealization; see internal/estimate for the dated-information study)
// and returns how many tasks each server ships; infeasible entries are
// clamped to what the sender actually holds beyond its in-service task.
type Rebalancer struct {
	// Period between decisions (> 0); the first decision runs at Period
	// (the t = 0 policy is the state's own group set).
	Period float64
	// Decide returns the shipment matrix for the observed configuration.
	Decide func(queues []int, up []bool) core.Policy
}

// run is one realization's state: the agenda, the part of the start
// state s a realization mutates (queue lengths and liveness; the ages and
// groups of s are only read) and the bookkeeping the event handlers
// share. newRun sizes it for a model and a start state once; realize
// resets it, so a worker reuses one run, and its generator, for every
// replication it takes.
type run struct {
	m  *core.Model
	s  *core.State
	rb *Rebalancer
	// tw, when set, receives the realization's trace events, stamped rep.
	tw *trace.Writer
	// The start state's laws, aged as s says: each server's task in
	// service (nil when the server is down or empty, where its age means
	// nothing and may lie past the law's support), its failure clock
	// (nil: none is set) and each group in flight. They are the same for
	// every realization from s.
	startService, startFailure, startGroup []dist.Dist

	r   *rand.Rand
	pcg rand.PCG // the stream r draws from when Estimate reseeds it
	rep int
	a   agenda

	queue []int
	up    []bool
	out   Outcome
	ticks int

	doomed, finished bool
}

// newRun sizes a realization of model m from state s; the caller sets
// its generator r.
func newRun(m *core.Model, s *core.State, rb *Rebalancer, tw *trace.Writer) *run {
	n := m.N()
	rn := &run{
		m: m, s: s, rb: rb, tw: tw,
		startService: make([]dist.Dist, n),
		startFailure: make([]dist.Dist, n),
		startGroup:   make([]dist.Dist, len(s.Groups)),
		queue:        make([]int, n),
		up:           make([]bool, n),
		out:          Outcome{Served: make([]int, n), BusyTime: make([]float64, n)},
	}
	for k := 0; k < n; k++ {
		if s.Up[k] && s.Queue[k] > 0 {
			rn.startService[k] = aged(m.Service[k], s.AgeW[k])
		}
		if _, never := m.Failure[k].(dist.Never); s.Up[k] && !never {
			rn.startFailure[k] = aged(m.Failure[k], s.AgeY[k])
		}
	}
	for i, g := range s.Groups {
		rn.startGroup[i] = aged(m.Transfer(g.Tasks, g.Src, g.Dst), g.Age)
	}
	return rn
}

// aged is d's residual law at age a, d itself at age 0.
func aged(d dist.Dist, a float64) dist.Dist {
	if a > 0 {
		return d.Aged(a)
	}
	return d
}

// realize runs replication rep from the start state, leaving its outcome
// in rn.out.
func (rn *run) realize(rep int) {
	n := len(rn.queue)
	rn.rep = rep
	copy(rn.queue, rn.s.Queue)
	copy(rn.up, rn.s.Up)
	clear(rn.out.Served)
	clear(rn.out.BusyTime)
	rn.out = Outcome{Served: rn.out.Served, BusyTime: rn.out.BusyTime}
	rn.ticks, rn.doomed, rn.finished = 0, false, false
	rn.a.reset(n)

	// Per server: its failure clock.
	for k, fd := range rn.startFailure {
		if fd == nil {
			continue
		}
		if y := fd.Sample(rn.r); !math.IsInf(y, 1) {
			rn.a.failAt(k, y)
		}
	}
	// In-flight groups of the initial state.
	for i, g := range rn.s.Groups {
		rn.dispatch(g.Src, g.Dst, g.Tasks, rn.startGroup[i], g.Age <= 0)
	}
	// Periodic rebalancing decisions, if configured.
	if rb := rn.rb; rb != nil && rb.Period > 0 && rb.Decide != nil {
		rn.scheduleTick(rb.Period)
	}
	// Services in progress at t = 0.
	for k := 0; k < n; k++ {
		rn.scheduleService(k, rn.startService[k], !(rn.s.AgeW[k] > 0))
	}
	rn.checkDone() // trivially empty workloads complete at t = 0

	for !rn.finished && !rn.doomed {
		ev := rn.a.next()
		if ev == nil {
			// Agenda drained without completion: only possible when a task
			// can never be served (e.g. Never service law) — treat as doomed.
			rn.doomed = true
			rn.out.Time = rn.a.now
			break
		}
		switch ev.kind {
		case evService:
			rn.serviceDone(ev)
		case evFailure:
			rn.fail(ev.server, ev.w)
		case evDeliver:
			rn.deliver(ev)
		case evTick:
			rn.rebalance()
		}
	}
	if rn.tw != nil {
		rn.traceCensored()
	}
	simEvents.Add(rn.a.events)
}

// emit traces one observation at the current instant; without a writer
// it is a no-op. Only age-zero draws are emitted: a draw from an aged law
// is a residual-time sample, not a sample of the fresh law the fitters
// estimate.
func (rn *run) emit(ev trace.Event) {
	if rn.tw == nil {
		return
	}
	ev.Rep = rn.rep
	ev.T = rn.a.now
	_ = rn.tw.Write(ev) // sticky error surfaces at Flush
}

func (rn *run) checkDone() {
	if rn.doomed || len(rn.a.groups) != 0 {
		return
	}
	for _, q := range rn.queue {
		if q != 0 {
			return
		}
	}
	rn.finished = true
	rn.out.Completed = true
	rn.out.Time = rn.a.now
}

// scheduleService starts the next task at server k, its service time
// drawn from d: the fresh law, or the law aged on a state resume.
func (rn *run) scheduleService(k int, d dist.Dist, fresh bool) {
	if !rn.up[k] || rn.queue[k] == 0 {
		return
	}
	// Spawn Repl[k] i.i.d. copies; the first completion wins and cancels
	// its siblings (cancel-on-first-complete). For one copy this is
	// exactly one draw and one event — the pre-replication stream. On a
	// state resume the task's copies were launched together, so every
	// copy's residual law carries the same age.
	rn.a.startService(k, fresh)
	for i, c := 0, rn.m.ReplFactor(k); i < c; i++ {
		rn.a.serviceCopy(k, d.Sample(rn.r))
	}
}

// serviceDone completes the task in service at ev.server through its
// copy ev.id, whose draw was ev.w; the agenda has cancelled the others.
func (rn *run) serviceDone(ev *event) {
	k := ev.server
	rn.out.CopiesCancelled += ev.copies - 1
	rn.queue[k]--
	rn.out.Served[k]++
	rn.out.BusyTime[k] += ev.w
	if ev.fresh && ev.copies == 1 {
		// Replicated completions are min-of-k draws, not samples of
		// the fresh service law the fitters estimate, so only
		// factor-1 draws are traced.
		rn.emit(trace.Event{Kind: trace.KindService, Server: k, Value: ev.w})
	}
	if rn.queue[k] > 0 {
		rn.scheduleService(k, rn.m.Service[k], true)
	}
	rn.checkDone()
}

// fail takes server k down at its failure-clock draw y.
func (rn *run) fail(k int, y float64) {
	if !rn.up[k] {
		return
	}
	rn.up[k] = false
	rn.out.FailuresSeen++
	if rn.s.AgeY[k] == 0 {
		rn.emit(trace.Event{Kind: trace.KindFailure, Server: k, Value: y})
	}
	rn.a.cancelService(k)
	doomed := rn.queue[k] > 0
	for _, g := range rn.a.groups {
		doomed = doomed || g.ev.server == k // a group still heading to k
	}
	if doomed {
		rn.doomed = true
		rn.out.Time = rn.a.now
	}
}

// dispatch launches a task group into the network: one transfer draw
// from td (aged for groups already in flight at t = 0, which are not
// fresh), then delivery — fatally late if the destination has meanwhile
// failed.
func (rn *run) dispatch(src, dst, tasks int, td dist.Dist, fresh bool) {
	rn.a.deliverAt(event{fresh: fresh, server: dst, src: src, tasks: tasks, w: td.Sample(rn.r), start: rn.a.now})
}

func (rn *run) deliver(ev *event) {
	dst := ev.server
	if ev.fresh {
		rn.emit(trace.Event{Kind: trace.KindTransfer, Src: ev.src, Dst: dst, Tasks: ev.tasks, Value: ev.w})
	}
	if !rn.up[dst] {
		rn.doomed = true
		rn.out.Time = rn.a.now
		return
	}
	wasIdle := rn.queue[dst] == 0
	rn.queue[dst] += ev.tasks
	if wasIdle {
		rn.scheduleService(dst, rn.m.Service[dst], true)
	}
}

// scheduleTick books the next rebalancing decision. The tick count is
// capped so a pathological model (a task that can never be served)
// cannot keep the event loop alive forever; once ticking stops, the
// agenda drains and the run resolves through the usual outcome logic.
func (rn *run) scheduleTick(t float64) {
	const maxTicks = 1 << 20
	if rn.ticks++; rn.ticks <= maxTicks {
		rn.a.tickAt(t)
	}
}

// rebalance runs one decision of the rebalancer and ships what it asks
// for, clamped to what each sender holds beyond its task in service.
func (rn *run) rebalance() {
	n := len(rn.queue)
	pol := rn.rb.Decide(append([]int(nil), rn.queue...), append([]bool(nil), rn.up...))
	for i := range pol {
		if i >= n || !rn.up[i] {
			continue
		}
		// The task in service cannot be shipped.
		shippable := rn.queue[i]
		if rn.a.inService(i) > 0 {
			shippable--
		}
		for j, l := range pol[i] {
			if l = min(l, shippable); j == i || j >= n || l <= 0 {
				continue
			}
			rn.queue[i] -= l
			shippable -= l
			rn.dispatch(i, j, l, rn.m.Transfer(l, i, j), true)
		}
	}
	rn.scheduleTick(rn.a.now + rn.rb.Period)
}

// traceCensored emits the right-censored observations at capture end:
// services still in progress, transfers still in flight, servers still
// alive. Their realized durations exceed the recorded elapsed values.
func (rn *run) traceCensored() {
	end := rn.a.now
	for k := range rn.queue {
		if sl := &rn.a.service[k].ev; rn.a.inService(k) == 1 && sl.fresh {
			rn.emit(trace.Event{Kind: trace.KindService, Server: k,
				Value: end - sl.start, Censored: true})
		}
		if rn.up[k] && rn.s.AgeY[k] == 0 && end > 0 {
			rn.emit(trace.Event{Kind: trace.KindFailure, Server: k,
				Value: end, Censored: true})
		}
	}
	// The groups in flight, in dispatch order.
	for _, g := range rn.a.groups {
		if g.ev.fresh {
			rn.emit(trace.Event{Kind: trace.KindTransfer, Src: g.ev.src, Dst: g.ev.server,
				Tasks: g.ev.tasks, Value: end - g.ev.start, Censored: true})
		}
	}
}

// Options configures a Monte-Carlo estimation run.
type Options struct {
	// Reps is the number of independent realizations (required).
	Reps int
	// Seed makes the whole estimate deterministic; replication i uses
	// rngutil.Stream(Seed, i) regardless of worker scheduling.
	Seed uint64
	// Workers bounds the worker pool (default: GOMAXPROCS).
	Workers int
	// Deadline is the QoS threshold TM; 0 disables the QoS estimate.
	Deadline float64
	// Level is the confidence level for intervals, in (0, 1)
	// (default 0.95).
	Level float64
	// Rebalance, when non-nil, re-runs a DTR decision periodically in
	// every replication (see Rebalancer).
	Rebalance *Rebalancer
	// Trace, when non-nil, receives every replication's delay
	// observations: every fresh-law draw — service completions, transfer
	// deliveries, failures — plus right-censored observations for
	// services and transfers in progress and servers alive when the
	// realization ends. Events from concurrent replications
	// interleave in an unspecified order; the Rep field disambiguates.
	// Tracing draws no randomness, so estimates are unchanged by it.
	Trace *trace.Writer
}

// Estimates summarizes a Monte-Carlo run; every metric carries the
// half-width of its confidence interval at Options.Level, matching the
// paper's "centers of 95% confidence intervals" reporting.
type Estimates struct {
	Reps int
	// Reliability is the fraction of realizations that completed.
	Reliability, ReliabilityHalf float64
	// QoS is the fraction that completed within Deadline (NaN if the
	// deadline was not set).
	QoS, QoSHalf float64
	// MeanTime is the average execution time over *completed*
	// realizations (the unconditional mean when every run completes).
	MeanTime, MeanTimeHalf float64
	Completed              int
}

// Estimate runs Monte-Carlo replications of the canonical scenario:
// initial allocation + DTR policy at t = 0.
func Estimate(m *core.Model, initial []int, p core.Policy, opt Options) (Estimates, error) {
	s, err := core.NewState(m, initial, p)
	if err != nil {
		return Estimates{}, err
	}
	return EstimateState(m, s, opt)
}

// EstimateState runs Monte-Carlo replications from an arbitrary state.
func EstimateState(m *core.Model, s *core.State, opt Options) (Estimates, error) {
	if err := m.Validate(); err != nil {
		return Estimates{}, err
	}
	if opt.Reps <= 0 {
		return Estimates{}, fmt.Errorf("sim: Options.Reps must be positive, got %d", opt.Reps)
	}
	level := opt.Level
	if level == 0 {
		level = 0.95
	}
	if !(level > 0 && level < 1) {
		return Estimates{}, fmt.Errorf("sim: Options.Level must be in (0, 1), got %g", opt.Level)
	}
	workers := min(par.Workers(opt.Workers), opt.Reps)

	defer obs.StartSpan("replicate", "reps", opt.Reps, "workers", workers)()
	instrumented := obs.Default() != nil

	// Per-worker busy-time gauges: a worker far ahead of its peers means
	// straggling replications dominate the wall clock.
	busy := make([]*obs.Gauge, workers)
	for w := range busy {
		busy[w] = obs.Default().Gauge(obs.Name("dtr_sim_worker_busy_seconds", "worker", w))
	}
	// One realization state per worker, its generator reseeded in place
	// to replication i's stream, so a replication allocates nothing. A
	// worker allocates its own on its first replication: its small
	// per-server slices then come from its P's spans, not from cache
	// lines a second worker writes too.
	runs := make([]*run, workers)
	completed := make([]bool, opt.Reps)
	times := make([]float64, opt.Reps)
	_ = par.ForEach(workers, opt.Reps, func(w, i int) error { // a replication cannot fail
		rn := runs[w]
		if rn == nil {
			rn = newRun(m, s, opt.Rebalance, opt.Trace)
			rn.r = rand.New(&rn.pcg)
			runs[w] = rn
		}
		rngutil.Reseed(&rn.pcg, opt.Seed, i)
		var t0 time.Time
		if instrumented {
			t0 = time.Now()
		}
		rn.realize(i)
		out := &rn.out
		completed[i], times[i] = out.Completed, out.Time
		if !instrumented {
			return nil
		}
		busy[w].Add(time.Since(t0).Seconds())
		simWall.ObserveSince(t0)
		simReps.Inc()
		simFailures.Add(uint64(out.FailuresSeen))
		if out.Completed {
			simCompleted.Inc()
			simTime.Observe(out.Time)
		}
		return nil
	})

	// The completed realizations' times, in replication order, packed
	// into the front of times.
	est := Estimates{Reps: opt.Reps}
	done := times[:0]
	within := 0
	for i, t := range times {
		if completed[i] {
			est.Completed++
			done = append(done, t)
			if opt.Deadline > 0 && t < opt.Deadline {
				within++
			}
		}
	}
	est.Reliability, est.ReliabilityHalf = stat.ProportionCI(est.Completed, opt.Reps, level)
	if opt.Deadline > 0 {
		est.QoS, est.QoSHalf = stat.ProportionCI(within, opt.Reps, level)
	} else {
		est.QoS, est.QoSHalf = math.NaN(), math.NaN()
	}
	if len(done) > 0 {
		est.MeanTime, est.MeanTimeHalf = stat.MeanCI(done, level)
	} else {
		est.MeanTime, est.MeanTimeHalf = math.NaN(), math.NaN()
	}
	return est, nil
}
