package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"time"

	"dtr"
	"dtr/dist"
	"dtr/dist/fit"
	"dtr/internal/cluster"
	"dtr/internal/direct"
	"dtr/internal/fft"
	"dtr/internal/gridfn"
	"dtr/internal/ingest"
	"dtr/internal/obs"
	"dtr/internal/policy"
	"dtr/internal/serve"
	"dtr/internal/sim"
	"dtr/internal/trace"
	"dtr/modelspec"
)

// The per-layer measurements time calls into each package's public
// functions from here; nothing inside the layers is instrumented. Inputs
// are fixed (not seeded): these numbers compare one commit with another.

// timed calls f n times after one untimed call and returns the median
// duration of a call. prep, when set, runs untimed before each call.
func timed(n int, prep, f func()) time.Duration {
	if prep != nil {
		prep()
	}
	f()
	ds := make([]time.Duration, n)
	for i := range ds {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		f()
		ds[i] = time.Since(t0)
	}
	slices.Sort(ds)
	return ds[n/2]
}

// batched is timed for calls too short to time singly: each of `rounds`
// samples is the mean of `per` consecutive calls.
func batched(rounds, per int, f func(i int)) time.Duration {
	k := 0
	return timed(rounds, nil, func() {
		for j := 0; j < per; j++ {
			f(k)
			k++
		}
	}) / time.Duration(per)
}

// allocsOf returns the bytes and heap objects one call of f allocates.
func allocsOf(n int, f func()) (bytesPer, objectsPer float64) {
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// once times a single call of f, for calls that take seconds.
func once(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerSet collects metrics and the first error.
type layerSet struct {
	m   map[string]metric
	err error
	p   profile
}

func (ls *layerSet) put(name string, v float64, unit string) { ls.m[name] = metric{v, unit} }

// n scales an iteration count by the profile, never below 1.
func (ls *layerSet) n(full int) int {
	if k := int(float64(full) * ls.p.micro); k > 1 {
		return k
	}
	return 1
}

func (ls *layerSet) fail(layer string, err error) {
	if err != nil && ls.err == nil {
		ls.err = fmt.Errorf("%s layer: %w", layer, err)
	}
}

// layerMetrics measures every workload-independent per-layer metric.
func layerMetrics(p profile) (map[string]metric, error) {
	ls := &layerSet{m: map[string]metric{}, p: p}
	for _, f := range []func(*layerSet){
		layerFFT, layerGridfn, layerDirect, layerPolicy, layerSim,
		layerModelspec, layerServe, layerCluster, layerIngest, layerFit,
	} {
		f(ls)
		if ls.err != nil {
			return nil, ls.err
		}
	}
	return ls.m, nil
}

func layerFFT(ls *layerSet) {
	r := rand.New(rand.NewPCG(1, 1))
	worst := 0.0
	for _, size := range []int{1 << 12, 1 << 14} {
		src := make([]complex128, size)
		for i := range src {
			src[i] = complex(r.Float64(), r.Float64())
		}
		buf := make([]complex128, size)
		d := timed(ls.n(200), func() { copy(buf, src) }, func() { fft.Forward(buf) })
		ls.put(fmt.Sprintf("fft.forward_%dk_us", size>>10), us(d), "us")
		copy(buf, src)
		fft.Forward(buf)
		fft.Inverse(buf)
		for i := range buf {
			worst = math.Max(worst, cmplx.Abs(buf[i]-src[i]))
		}
	}
	ls.put("fft.roundtrip_err_max", worst, "abs")
	x, y := make([]float64, 2048), make([]float64, 2048)
	for i := range x {
		x[i], y[i] = r.Float64(), r.Float64()
	}
	ls.put("fft.convolve_2k_us", us(timed(ls.n(200), nil, func() { fft.Convolve(x, y) })), "us")
}

// paretoLattice discretizes the slow server's severe-delay service law
// on the lattice lab_sweep uses (2048 points over 2600 s).
func paretoLattice() *gridfn.Lattice {
	return gridfn.FromCDF(dist.NewPareto(2.5, 2).CDF, 2600.0/2047, 2048)
}

func layerGridfn(ls *layerSet) {
	l := paretoLattice()
	o := l.Convolve(l)
	ls.put("gridfn.convolve_us", us(timed(ls.n(200), nil, func() { l.Convolve(o) })), "us")
	b, _ := allocsOf(ls.n(50), func() { l.Convolve(o) })
	ls.put("gridfn.convolve_alloc_kb", b/1024, "KB")
	ls.put("gridfn.prefixes50_ms", ms(timed(ls.n(20), nil, func() { l.Prefixes(50) })), "ms")
	ls.put("gridfn.maxindep_us", us(timed(ls.n(500), nil, func() { l.MaxIndep(o) })), "us")
	var meter gridfn.Meter
	l.PrefixesMetered(50, &meter)
	ls.put("gridfn.mass_residual_max", meter.MaxResidual, "abs")
}

// severeModel is the unperturbed severe-delay model with its queues.
func severeModel() (*dtr.Model, []int) {
	spec := severeSpec()
	m, initial, err := spec.Build()
	if err != nil {
		panic("bench: the severe-delay spec does not build: " + err.Error())
	}
	return m, initial
}

func severeSolver(grid, maxFactor int) (*direct.Solver, error) {
	m, q := severeModel()
	return direct.NewSolver(m, direct.Config{N: grid, MaxQueue: [2]int{q[0] + q[1], q[0] + q[1]}, MaxFactor: maxFactor})
}

func layerDirect(ls *layerSet) {
	var err error
	build := func(grid int) func() {
		return func() {
			if _, e := severeSolver(grid, 1); e != nil {
				err = e
			}
		}
	}
	ls.put("direct.build_2k_ms", ms(timed(ls.n(5), nil, build(ls.p.microGrid))), "ms")
	ls.put("direct.build_4k_ms", ms(timed(ls.n(3), nil, build(2*ls.p.microGrid))), "ms")
	b, _ := allocsOf(ls.n(2), build(ls.p.microGrid))
	ls.put("direct.build_alloc_mb", b/1e6, "MB")
	sv, e := severeSolver(ls.p.microGrid, 1)
	if e != nil {
		err = e
	}
	if err != nil {
		ls.fail("direct", err)
		return
	}
	// One lattice point with its transforms already cached: what the
	// sweep pays per point once it is under way.
	eval := func() {
		if _, e := sv.MeanTime(100, 50, 20, 5); e != nil {
			err = e
		}
	}
	ls.put("direct.point_eval_us", us(timed(ls.n(500), nil, eval)), "us")
	_, objs := allocsOf(ls.n(100), eval)
	ls.put("direct.point_eval_allocs", objs, "count")
	ls.fail("direct", err)
}

func layerPolicy(ls *layerSet) {
	m, q := severeModel()
	var err error
	// Every search runs on a freshly built solver (built untimed): the
	// lazily cached transforms are part of what a request pays.
	var sv *direct.Solver
	fresh := func(q1, q2, maxFactor int) func() {
		return func() {
			sv, err = direct.NewSolver(m, direct.Config{N: ls.p.microGrid, MaxQueue: [2]int{q1 + q2, q1 + q2}, MaxFactor: maxFactor})
		}
	}
	must := func(_ any, e error) {
		if e != nil && err == nil {
			err = e
		}
	}
	d := timed(ls.n(5), fresh(q[0], q[1], 1), func() {
		must(policy.Optimize2(sv, q[0], q[1], policy.ObjMeanTime, policy.Options2{}))
	})
	ls.put("policy.coarse_optimize2_ms", ms(d), "ms")
	const e1, e2 = 50, 25 // the testbed's queue sizes: 1 326 lattice points
	d = timed(ls.n(2), fresh(e1, e2, 1), func() {
		must(policy.Optimize2(sv, e1, e2, policy.ObjMeanTime, policy.Options2{Exhaustive: true}))
	})
	ls.put("policy.exhaustive_optimize2_ms", ms(d), "ms")
	ls.put("policy.sweep_points_per_s", float64((e1+1)*(e2+1))/d.Seconds(), "1/s")
	d = timed(ls.n(2), fresh(q[0], q[1], 2), func() {
		must(policy.OptimizeRepl2(sv, q[0], q[1], policy.ObjMeanTime, policy.ReplOptions2{MaxFactor: 2, Budget: 1}))
	})
	ls.put("policy.repl2_optimize_ms", ms(d), "ms")

	five, queues, e := fiveServerModel()
	if e != nil {
		ls.fail("policy", e)
		return
	}
	d = timed(1, nil, func() {
		must(policy.Algorithm1(five, queues, policy.Alg1Options{Objective: policy.ObjMeanTime, GridN: ls.p.microGrid / 2}))
	})
	ls.put("policy.alg1_five_ms", ms(d), "ms")
	ls.fail("policy", err)
}

// fiveServerModel is the five-server scenario of §III-A2
// (examples/specs/cluster.json).
func fiveServerModel() (*dtr.Model, []int, error) {
	spec := modelspec.SystemSpec{Transfer: modelspec.TransferSpec{
		DistSpec: modelspec.DistSpec{Type: "pareto", Alpha: 2.5}, PerTaskMean: 3}}
	for i, q := range []int{80, 50, 30, 25, 15} {
		spec.Servers = append(spec.Servers, modelspec.ServerSpec{
			Queue: q, Service: modelspec.DistSpec{Type: "pareto", Mean: float64(5 - i), Alpha: 2.5}})
	}
	return spec.Build()
}

func layerSim(ls *layerSet) {
	m, q := severeModel()
	const reps = 2000
	var err error
	d := timed(ls.n(5), nil, func() {
		_, err = sim.Estimate(m, q, dtr.Policy2(20, 0), sim.Options{Reps: reps, Seed: 1})
	})
	ls.fail("sim", err)
	ls.put("sim.reps_per_s", reps/d.Seconds(), "1/s")
	// On a reliable system every realization processes one completion
	// per task and one arrival per shipped group.
	ls.put("sim.events_per_s", reps*float64(q[0]+q[1]+1)/d.Seconds(), "1/s")
}

func layerModelspec(ls *layerSet) {
	raw, err := json.Marshal(testbedSpec())
	if err != nil {
		ls.fail("modelspec", err)
		return
	}
	spec, err := modelspec.Decode(raw)
	if err != nil {
		ls.fail("modelspec", err)
		return
	}
	rounds := ls.n(50)
	ls.put("modelspec.decode_us", us(batched(rounds, 20, func(int) { _, err = modelspec.Decode(raw) })), "us")
	ls.put("modelspec.build_us", us(batched(rounds, 20, func(int) { _, _, err = spec.Build() })), "us")
	ls.put("modelspec.fingerprint_us", us(batched(rounds, 20, func(int) { _, err = spec.Fingerprint([]byte("optimize")) })), "us")
	ls.fail("modelspec", err)
}

func layerServe(ls *layerSet) {
	pr, err := newPlanReq("cdf", severeSpec(), serve.Request{Grid: 256, Policy: "0>1:20", Points: 20})
	if err != nil {
		ls.fail("serve", err)
		return
	}
	rounds := ls.n(50)
	ls.put("serve.decode_json_us", us(batched(rounds, 20, func(int) {
		var req serve.Request
		dec := json.NewDecoder(bytes.NewReader(pr.body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	})), "us")
	reply := &serve.CDFResponse{Policy: "0>1:20"}
	for i := 1; i <= 20; i++ {
		reply.Points = append(reply.Points, serve.CDFPoint{T: 12.5 * float64(i), P: serve.Num(float64(i) / 20.5)})
	}
	ls.put("serve.encode_json_us", us(batched(rounds, 20, func(int) { _, err = json.Marshal(reply) })), "us")
	if err != nil {
		ls.fail("serve", err)
		return
	}

	// The handler alone on a cached key, no network: decode →
	// canonicalize → fingerprint → LRU → write.
	st, err := bootPlan()
	if err != nil {
		ls.fail("serve", err)
		return
	}
	defer st.close()
	h := st.srv.Handler
	call := func() int {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/cdf", bytes.NewReader(pr.body)))
		return rw.Code
	}
	if code := call(); code != http.StatusOK {
		ls.fail("serve", fmt.Errorf("handler answered %d", code))
		return
	}
	ls.put("serve.hit_handler_us", us(batched(rounds, 20, func(int) { call() })), "us")
	// What HTTP over loopback costs by itself: the cheapest endpoint.
	ls.put("serve.http_loopback_us", us(batched(rounds, 20, func(int) {
		_, _, err = st.do(http.MethodGet, "/healthz", nil)
	})), "us")
	ls.fail("serve", err)
}

// layerCluster boots three in-process replicas on loopback and measures
// the ring lookup and the cost of one forward hop: a miss at a replica
// that does not own the key, forwarded to the warm owner, minus a direct
// hit at the owner.
func layerCluster(ls *layerSet) {
	const replicas = 3
	lns := make([]net.Listener, replicas)
	urls := make([]string, replicas)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			ls.fail("cluster", err)
			return
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	regs := make([]*obs.Registry, replicas)
	stacks := make([]*server, replicas)
	var ring *cluster.Cluster
	for i := range lns {
		regs[i] = obs.NewRegistry()
		cl, err := cluster.New(cluster.Config{Self: urls[i], Peers: urls, ProbeInterval: -1,
			ForwardTimeout: 10 * time.Second, Registry: regs[i]})
		if err != nil {
			ls.fail("cluster", err)
			return
		}
		defer cl.Stop()
		ring = cl
		mux := http.NewServeMux()
		serve.New(serve.Config{Registry: regs[i], Cluster: cl}).Register(mux)
		stacks[i] = serveOn(lns[i], regs[i], mux)
		defer stacks[i].close()
	}

	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", uint64(i)*0x9e3779b97f4a7c15)
	}
	ls.put("cluster.route_ns", float64(batched(ls.n(50), len(keys), func(i int) { ring.Route(keys[i%len(keys)]) })), "ns")

	computes := func(i int) uint64 { return counter(regs[i], "dtr_serve_computes_total") }
	r := rand.New(rand.NewPCG(3, 3))
	var hops, hits []float64
	for k := 0; k < ls.n(40); k++ {
		// A cheap distinct key; whichever replica computes it owns it.
		spec := perturb(severeSpec(), r, 0.05)
		spec.Servers[0].Queue, spec.Servers[1].Queue = 6, 3
		pr, err := newPlanReq("metrics", spec, serve.Request{Grid: 64, Policy: "0>1:2"})
		if err != nil {
			ls.fail("cluster", err)
			return
		}
		before := [replicas]uint64{computes(0), computes(1), computes(2)}
		if _, _, err := stacks[0].post("/v1/metrics", pr.body); err != nil {
			ls.fail("cluster", err)
			return
		}
		owner := 0
		for i := range before {
			if computes(i) != before[i] {
				owner = i
			}
		}
		// Replica 0 now holds the reply too; a replica that is neither it
		// nor the owner still misses and must forward.
		cold := 1
		if owner == 1 {
			cold = 2
		}
		_, hop, err := stacks[cold].post("/v1/metrics", pr.body)
		if err != nil {
			ls.fail("cluster", err)
			return
		}
		_, hit, err := stacks[owner].post("/v1/metrics", pr.body)
		if err != nil {
			ls.fail("cluster", err)
			return
		}
		hops, hits = append(hops, us(hop)), append(hits, us(hit))
	}
	ls.put("cluster.forward_hop_us", median(hops)-median(hits), "us")
	forwarded := uint64(0)
	for _, reg := range regs {
		forwarded += counter(reg, "dtr_serve_forwarded_total")
	}
	ls.put("cluster.forwarded", float64(forwarded), "count")
}

func layerIngest(ls *layerSet) {
	d := newDataset(rand.New(rand.NewPCG(5, 5)), profile{refitBatches: ls.n(100), refitLines: 500})
	lines := bytes.Split(bytes.TrimSpace(bytes.Join(d.batches[:1], nil)), []byte("\n"))
	strs := make([]string, len(lines))
	for i, l := range lines {
		strs[i] = string(l)
	}
	var err error
	ls.put("ingest.parse_line_ns", float64(batched(ls.n(100), len(strs), func(i int) {
		_, _, err = ingest.ParseLine(strs[i%len(strs)])
	})), "ns")
	_, ev, e := ingest.ParseLine(strs[0])
	if e != nil || err != nil {
		ls.fail("ingest", fmt.Errorf("generated line does not parse: %v %v", e, err))
		return
	}
	agg := ingest.New(ingest.Config{})
	ls.put("ingest.observe_ns", float64(batched(ls.n(100), 500, func(int) { err = agg.Observe("bench", ev) })), "ns")
	ls.fail("ingest", err)

	// HTTP: whole batches through POST /v1/ingest on loopback.
	st, e := bootObserve()
	if e != nil {
		ls.fail("ingest", e)
		return
	}
	defer st.close()
	d.readdress(tenantName(1))
	t0 := time.Now()
	for _, b := range d.batches {
		if _, _, err := st.ingest.post("/v1/ingest", b); err != nil {
			ls.fail("ingest", err)
			return
		}
	}
	ls.put("ingest.http_lines_per_s", float64(d.lines)/time.Since(t0).Seconds(), "1/s")
	snapshot := func() { _, _, err = st.ingest.do(http.MethodGet, "/v1/snapshot?tenant="+string(tenantName(1)), nil) }
	ls.put("ingest.snapshot_ms", ms(timed(ls.n(20), nil, snapshot)), "ms")
	ls.fail("ingest", err)

	// UDP: eight-line datagrams, fire and forget; the share that lands
	// is part of the result.
	uagg := ingest.New(ingest.Config{})
	usrv := ingest.NewServer(uagg, nil, 0)
	conn, e := net.ListenPacket("udp", "127.0.0.1:0")
	if e != nil {
		ls.fail("ingest", e)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- usrv.ServeUDP(ctx, conn) }()
	defer func() {
		cancel()
		<-served
	}()
	out, e := net.Dial("udp", conn.LocalAddr().String())
	if e != nil {
		ls.fail("ingest", e)
		return
	}
	defer out.Close()
	events := func() uint64 { return counter(st.reg, "dtr_ingest_events_total") }
	base, sent := events(), 0
	t0 = time.Now()
	for _, b := range d.batches[:ls.n(20)] {
		ll := bytes.SplitAfter(b, []byte("\n"))
		for i := 0; i+8 <= len(ll); i += 8 {
			if _, err := out.Write(bytes.Join(ll[i:i+8], nil)); err != nil {
				ls.fail("ingest", err)
				return
			}
			sent += 8
		}
	}
	// Datagrams are still being folded in after the last send: wait
	// until the count stops moving.
	got, last := events()-base, time.Now()
	for time.Since(last) < 100*time.Millisecond && int(got) < sent {
		time.Sleep(2 * time.Millisecond)
		if now := events() - base; now != got {
			got, last = now, time.Now()
		}
	}
	ls.put("ingest.udp_lines_per_s", float64(got)/last.Sub(t0).Seconds(), "1/s")
	ls.put("ingest.udp_accept_share", float64(got)/float64(sent), "ratio")
	ls.put("ingest.footprint_kb", float64(uagg.Footprint())/1024, "KB")
}

func layerFit(ls *layerSet) {
	// A stats set as a dtringest snapshot carries it, folded from one
	// generated stream.
	d := newDataset(rand.New(rand.NewPCG(7, 7)), profile{refitBatches: ls.n(40) + 4, refitLines: 500})
	set := fit.NewStatsSet(2, 0)
	for _, b := range d.batches {
		for _, line := range bytes.Split(bytes.TrimSpace(b), []byte("\n")) {
			_, ev, err := ingest.ParseLine(string(line))
			if err == nil {
				ev.V = trace.Version
				err = set.AddEvent(ev)
			}
			if err != nil {
				ls.fail("fit", err)
				return
			}
		}
	}
	fams, err := fit.ParseFamilies(ls.p.refitFamilies)
	if err != nil {
		ls.fail("fit", err)
		return
	}
	ls.put("fit.stats_fit_ms", ms(timed(ls.n(5), nil, func() { _, err = fit.FitStats(fit.Family("pareto"), set.Service[0]) })), "ms")
	ls.put("fit.select_stats_ms", ms(once(func() { _, err = fit.SelectStats(set.Service[0], fams) })), "ms")
	var spec *modelspec.SystemSpec
	ls.put("fit.stats_spec_ms", ms(once(func() { spec, _, err = set.Spec(fit.Config{Queues: []int{50, 25}, Families: fams}) })), "ms")
	if err != nil {
		ls.fail("fit", err)
		return
	}
	// Reported, not enforced: observe_refit is where a fit outside the
	// tolerance counts as a failure.
	worst, _ := fitError(spec, d.truth, ls.p.refitFamilies)
	ls.put("fit.param_rel_err_max", worst, "ratio")
}
