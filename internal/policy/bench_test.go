package policy

import (
	"bytes"
	"encoding/json"
	"strconv"
	"testing"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/direct"
	"dtr/internal/obs"
)

// BenchmarkOptimize2 measures the coarse-to-fine 2-server policy search
// at paper scale (100+50 tasks). Each iteration sweeps tables built
// outside the timer: on shared ones every iteration after the first
// would read the first sweep back.
func BenchmarkOptimize2(b *testing.B) {
	benchSweeps(b, Options2{})
}

// severeModel is the paper's severe-delay Pareto model, the one the
// benchmark's lab_sweep workload sweeps.
func severeModel() *core.Model {
	return &core.Model{
		Service: []dist.Dist{dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1)},
		Failure: []dist.Dist{dist.Never{}, dist.Never{}},
		Transfer: func(tasks, src, dst int) dist.Dist {
			if tasks < 1 {
				tasks = 1
			}
			return dist.NewPareto(2.5, 3*float64(tasks))
		},
	}
}

// benchSolver builds the paper-scale severe-delay Pareto solver the
// sweep benchmarks search.
func benchSolver(b *testing.B) *direct.Solver {
	b.Helper()
	s, err := direct.NewSolver(severeModel(), direct.Config{N: 1 << 12, Horizon: 2600, MaxQueue: [2]int{150, 150}})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkExhaustiveMeanSweep2k is the solve of one lab_sweep
// operation, both halves timed: a cold solver for the severe-delay model
// at 100 + 100 tasks (grid 2048, horizon 2600) and the exhaustive mean
// sweep on it. Beside the time it reports walks/op, the mean bounds the
// sweep walked (the optimize2 span's walks attribute), and laws/op, the
// transfer lattices it tabulated (dtr_direct_transfer_cache_misses_total).
func BenchmarkExhaustiveMeanSweep2k(b *testing.B) {
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)
	var buf bytes.Buffer
	tracer := obs.NewTracer(&buf)
	b.ResetTimer()
	for range b.N {
		root := tracer.StartRoot("sweep", "")
		s, err := direct.NewSolver(severeModel(), direct.Config{N: 2048, Horizon: 2600, MaxQueue: [2]int{200, 200}})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Optimize2(s, 100, 100, ObjMeanTime, Options2{Exhaustive: true, Span: root}); err != nil {
			b.Fatal(err)
		}
		root.End()
	}
	b.StopTimer()
	walks := 0
	for line := range bytes.Lines(buf.Bytes()) {
		var rec obs.TraceRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			b.Fatal(err)
		}
		for _, sp := range rec.Spans {
			if sp.Name == "optimize2" {
				n, err := strconv.Atoi(sp.Attrs["walks"])
				if err != nil {
					b.Fatalf("optimize2 span walks %q: %v", sp.Attrs["walks"], err)
				}
				walks += n
			}
		}
	}
	b.ReportMetric(float64(walks)/float64(b.N), "walks/op")
	b.ReportMetric(float64(reg.Counter("dtr_direct_transfer_cache_misses_total").Value())/float64(b.N), "laws/op")
}

// benchSweeps times b.N sweeps with opt, each on a solver built untimed.
func benchSweeps(b *testing.B, opt Options2) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := benchSolver(b)
		b.StartTimer()
		if _, err := Optimize2(s, 100, 50, ObjMeanTime, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimize2Serial pins the one-worker exhaustive sweep — the
// baseline BenchmarkOptimize2Parallel is read against.
func BenchmarkOptimize2Serial(b *testing.B) {
	benchSweeps(b, Options2{Exhaustive: true, Workers: 1})
}

// BenchmarkOptimize2Parallel runs the same exhaustive sweep with the
// worker pool at its default size (GOMAXPROCS).
func BenchmarkOptimize2Parallel(b *testing.B) {
	benchSweeps(b, Options2{Exhaustive: true})
}

// BenchmarkAlgorithm1FiveServer measures the full multi-server policy
// computation of Table II.
func BenchmarkAlgorithm1FiveServer(b *testing.B) {
	m := fiveServer(dist.FamilyPareto1, 3, true)
	queues := []int{80, 50, 30, 25, 15}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Algorithm1(m, queues, Alg1Options{Objective: ObjMeanTime, K: 3, GridN: 1 << 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlgorithm1FiveServerParallel shards the refinement rows over
// the default pool.
func BenchmarkAlgorithm1FiveServerParallel(b *testing.B) {
	m := fiveServer(dist.FamilyPareto1, 3, true)
	queues := []int{80, 50, 30, 25, 15}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Algorithm1(m, queues, Alg1Options{Objective: ObjMeanTime, K: 3, GridN: 1 << 10, Workers: 0}); err != nil {
			b.Fatal(err)
		}
	}
}
