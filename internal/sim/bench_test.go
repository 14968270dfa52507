package sim

import (
	"testing"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/rngutil"
	"dtr/modelspec"
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

// BenchmarkEstimateTestbed2000 measures plan_cold's other `simulate`
// request: 2 000 realizations of the testbed spec (Pareto services,
// exponential failures, shifted-gamma transfers) under policy 0>1:10
// with deadline 200.
func BenchmarkEstimateTestbed2000(b *testing.B) {
	m, initial, err := modelspec.Load("../../examples/specs/testbed.json")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := Estimate(m, initial, core.Policy2(10, 0), Options{Reps: 2000, Seed: 1, Deadline: 200}); err != nil {
			b.Fatal(err)
		}
	}
}

// fleet32 is a 32-server fleet with replication: Pareto services of
// four speeds, every fourth server running two copies and every eighth
// three, exponential failures rare enough that most realizations
// complete, 640 tasks and 15 groups shipped at t = 0.
func fleet32(b *testing.B) (*core.Model, *core.State) {
	const n = 32
	m := &core.Model{
		Service: make([]dist.Dist, n),
		Failure: make([]dist.Dist, n),
		Transfer: func(tasks, src, dst int) dist.Dist {
			return dist.NewPareto(2.5, 0.5*float64(tasks))
		},
		Repl: make([]int, n),
	}
	initial := make([]int, n)
	p := core.NewPolicy(n)
	for k := 0; k < n; k++ {
		m.Service[k] = dist.NewPareto(2.5, float64(1+k%4))
		m.Failure[k] = dist.NewExponential(1e6)
		switch {
		case k%8 == 0:
			m.Repl[k] = 3
		case k%4 == 0:
			m.Repl[k] = 2
		default:
			m.Repl[k] = 1
		}
		initial[k] = 5 + 10*(k%4)
		if k%4 == 3 && k+1 < n {
			p[k][k+1] = 5
		}
		if k%4 == 2 {
			p[k][k-2] = 3
		}
	}
	s, err := core.NewState(m, initial, p)
	if err != nil {
		b.Fatal(err)
	}
	return m, s
}

// BenchmarkRunFleet32 measures one realization of fleet32: the agenda's
// pop scans every server's service slot, so this guards against a fleet
// slowdown.
func BenchmarkRunFleet32(b *testing.B) {
	m, s := fleet32(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(m, s, rngutil.Stream(3, i))
	}
}
