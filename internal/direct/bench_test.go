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

// BenchmarkMeanScore2k measures the mean's two bounds of one point of
// the benchmark's lab_sweep model (severe Pareto, 100 + 100 tasks, grid
// 2048, horizon 2600) once the screen's prefix statistics and the
// transfer laws are made, cycling over the row L21 = 0: the pre-bound
// Score returns (pre) and the walk over the two races Refine makes
// (walk).
func BenchmarkMeanScore2k(b *testing.B) {
	m := &core.Model{
		Service: []dist.Dist{dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1)},
		Failure: []dist.Dist{dist.Never{}, dist.Never{}},
		Transfer: func(tasks, src, dst int) dist.Dist {
			return dist.NewPareto(2.5, 3*float64(tasks))
		},
	}
	s, err := NewSolver(m, Config{N: 2048, Horizon: 2600, MaxQueue: [2]int{200, 200}})
	if err != nil {
		b.Fatal(err)
	}
	sn, err := s.Screen(MetricMean, 0, []int{1, 1})
	if err != nil {
		b.Fatal(err)
	}
	defer sn.Release()
	row := make([][2]int, 101)
	for i := range row {
		row[i] = [2]int{i, 0}
	}
	sn.FillPairs(100, 100, row, 0)
	sn.FillWalks(row, 0)
	b.Run("pre", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sn.Score(Pair(100, 100, i%101, 0, nil)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("walk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sn.Refine(Pair(100, 100, i%101, 0, nil)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
