package sim

import (
	"testing"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/rngutil"
)

// BenchmarkRunCanonical measures one realization of the paper's canonical
// two-server workload (150 tasks, Pareto services).
func BenchmarkRunCanonical(b *testing.B) {
	m := model2(dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1), 1000, 500, 1)
	s, err := core.NewState(m, []int{100, 50}, core.Policy2(30, 0))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(m, s, rngutil.Stream(1, i))
	}
}

// BenchmarkRunFiveServer measures one realization of the Table II
// five-server workload (200 tasks).
func BenchmarkRunFiveServer(b *testing.B) {
	var service, failure []dist.Dist
	for _, mean := range []float64{5, 4, 3, 2, 1} {
		service = append(service, dist.NewPareto(2.5, mean))
		failure = append(failure, dist.NewExponential(mean*200))
	}
	m := &core.Model{
		Service: service,
		Failure: failure,
		Transfer: func(tasks, src, dst int) dist.Dist {
			return dist.NewPareto(2.5, 3*float64(tasks))
		},
	}
	p := core.NewPolicy(5)
	p[0][4] = 20
	p[0][3] = 10
	p[1][4] = 10
	s, err := core.NewState(m, []int{80, 50, 30, 25, 15}, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(m, s, rngutil.Stream(2, i))
	}
}

// BenchmarkEstimate2000 measures one `simulate` request: 2 000
// realizations of the severe-delay 100+50 workload under policy 0>1:20.
func BenchmarkEstimate2000(b *testing.B) {
	m := &core.Model{
		Service: []dist.Dist{dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1)},
		Failure: []dist.Dist{dist.Never{}, dist.Never{}},
		Transfer: func(tasks, src, dst int) dist.Dist {
			return dist.NewPareto(2.5, 3*float64(tasks))
		},
	}
	for i := 0; i < b.N; i++ {
		if _, err := Estimate(m, []int{100, 50}, core.Policy2(20, 0), Options{Reps: 2000, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
