package core

import (
	"testing"

	"dtr/dist"
	"dtr/internal/obs"
)

func benchModel() *Model {
	return &Model{
		Service: []dist.Dist{dist.NewPareto(2.5, 1), dist.NewUniform(0.4, 1.2)},
		Failure: []dist.Dist{dist.NewExponential(20), dist.NewExponential(15)},
		Transfer: func(tasks, src, dst int) dist.Dist {
			return dist.NewPareto(2.5, 0.8*float64(tasks))
		},
	}
}

// BenchmarkRegenReliability measures a fresh regeneration-recursion solve
// of a small non-Markovian configuration (the memo is rebuilt each
// iteration: the cost of interest is the cold solve).
func BenchmarkRegenReliability(b *testing.B) {
	m := benchModel()
	s, err := NewState(m, []int{3, 2}, Policy2(1, 0))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv, err := NewSolver(m)
		if err != nil {
			b.Fatal(err)
		}
		sv.Step = 0.1
		sv.Horizon = 60
		sv.AgeCap = 20
		if _, err := sv.Reliability(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsOverhead measures the instrumentation cost on a real solver
// workload, with observability disabled (noop: the shipped default) and
// with a live registry installed. The solver batches its memo/cell stats
// in plain fields and flushes once per metric evaluation, so both
// sub-benchmarks should be within noise of each other.
func BenchmarkObsOverhead(b *testing.B) {
	m := benchModel()
	s, err := NewState(m, []int{3, 2}, Policy2(1, 0))
	if err != nil {
		b.Fatal(err)
	}
	solve := func(b *testing.B) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			sv, err := NewSolver(m)
			if err != nil {
				b.Fatal(err)
			}
			sv.Step = 0.1
			sv.Horizon = 60
			sv.AgeCap = 20
			if _, err := sv.Reliability(s); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("noop", func(b *testing.B) {
		obs.SetDefault(nil)
		solve(b)
	})
	b.Run("live", func(b *testing.B) {
		obs.SetDefault(obs.NewRegistry())
		defer obs.SetDefault(nil)
		solve(b)
	})
}

// BenchmarkRegen3Server measures the same recursion on a three-server
// configuration.
func BenchmarkRegen3Server(b *testing.B) {
	m := &Model{
		Service: []dist.Dist{
			dist.NewPareto(2.5, 1.5), dist.NewUniform(0.4, 1.2), dist.NewExponential(0.7),
		},
		Failure: []dist.Dist{dist.Never{}, dist.Never{}, dist.Never{}},
		Transfer: func(tasks, src, dst int) dist.Dist {
			return dist.NewExponential(0.5 * float64(tasks))
		},
	}
	p := NewPolicy(3)
	p[0][2] = 1
	s, err := NewState(m, []int{2, 1, 1}, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv, err := NewSolver(m)
		if err != nil {
			b.Fatal(err)
		}
		sv.Step = 0.1
		sv.Horizon = 60
		sv.AgeCap = 20
		if _, err := sv.MeanTime(s); err != nil {
			b.Fatal(err)
		}
	}
}
