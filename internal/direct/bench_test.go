package direct

import (
	"testing"

	"dtr/dist"
	"dtr/internal/core"
)

// BenchmarkTablesMetricsRead measures the solver side of one `metrics`
// request on a model nobody has seen: tables for the severe-delay
// 100+50 workload at the queue bound every System asks for, then one
// mean time at (20, 0) — which reads 80 + 50 of the 300 declared folds.
func BenchmarkTablesMetricsRead(b *testing.B) {
	m := &core.Model{
		Service: []dist.Dist{dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1)},
		Failure: []dist.Dist{dist.Never{}, dist.Never{}},
		Transfer: func(tasks, src, dst int) dist.Dist {
			return dist.NewPareto(2.5, 3*float64(tasks))
		},
	}
	for i := 0; i < b.N; i++ {
		s, err := NewSolver(m, Config{N: 2048, MaxQueue: [2]int{150, 150}})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.MeanTime(100, 50, 20, 0); err != nil {
			b.Fatal(err)
		}
	}
}
