package policy

import (
	"testing"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/direct"
)

// BenchmarkOptimize2 measures the coarse-to-fine 2-server policy search
// at paper scale (100+50 tasks). Each iteration sweeps tables built
// outside the timer: on shared ones every iteration after the first
// would read the first sweep back.
func BenchmarkOptimize2(b *testing.B) {
	benchSweeps(b, Options2{})
}

// benchSolver builds the paper-scale severe-delay Pareto solver the
// sweep benchmarks search.
func benchSolver(b *testing.B) *direct.Solver {
	b.Helper()
	m := &core.Model{
		Service: []dist.Dist{dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1)},
		Failure: []dist.Dist{dist.Never{}, dist.Never{}},
		Transfer: func(tasks, src, dst int) dist.Dist {
			if tasks < 1 {
				tasks = 1
			}
			return dist.NewPareto(2.5, 3*float64(tasks))
		},
	}
	s, err := direct.NewSolver(m, direct.Config{N: 1 << 12, Horizon: 2600, MaxQueue: [2]int{150, 150}})
	if err != nil {
		b.Fatal(err)
	}
	return s
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
