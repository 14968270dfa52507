package par

import (
	"fmt"
	"testing"
)

// spin is a fixed amount of serial floating-point work: a chain of
// dependent multiply-adds, about 3 ns a step on a 2-vCPU x86-64 VM.
func spin(steps int) float64 {
	x := 1.0
	for k := 0; k < steps; k++ {
		x = x*1.0000001 + 1e-9
	}
	return x
}

// BenchmarkForEach times a batch of equal items through the pool at
// GOMAXPROCS workers against a plain loop on one goroutine, for items of
// about 10 µs (a lattice point of a small solver) and about 100 µs. The
// pool is worth its goroutines when pool/op approaches serial/op ÷
// GOMAXPROCS; a pool that hands items out one at a time through the
// caller falls behind that most on the short items.
func BenchmarkForEach(b *testing.B) {
	const items = 400
	for _, steps := range []int{3_500, 35_000} {
		sink := make([]float64, items)
		b.Run(fmt.Sprintf("steps=%d/serial", steps), func(b *testing.B) {
			for range b.N {
				for i := range sink {
					sink[i] = spin(steps)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*items), "ns/item")
		})
		b.Run(fmt.Sprintf("steps=%d/pool", steps), func(b *testing.B) {
			for range b.N {
				_ = ForEach(0, items, func(_, i int) error {
					sink[i] = spin(steps)
					return nil
				})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*items), "ns/item")
		})
	}
}
