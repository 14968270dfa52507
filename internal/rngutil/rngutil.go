// Package rngutil provides deterministic, splittable random streams for
// the Monte-Carlo machinery. Every replication of a simulation gets its
// own PCG stream derived from (seed, replication index), so results are
// bit-reproducible regardless of how replications are distributed over
// worker goroutines — an essential property for debugging stochastic
// systems and for regression-testing simulation output.
package rngutil

import (
	"math/rand/v2"
)

// splitmix64 advances and mixes a 64-bit state; it is the standard way to
// expand one seed into many independent-looking stream parameters.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream returns a deterministic PCG generator for the given base seed
// and stream index. Distinct (seed, stream) pairs give statistically
// independent generators.
func Stream(seed uint64, stream int) *rand.Rand {
	s := seed
	_ = splitmix64(&s) // decorrelate trivially related seeds
	a := splitmix64(&s) ^ (uint64(stream) * 0xda942042e4dd58b5)
	b := splitmix64(&s) + uint64(stream)<<1 + 1
	return rand.New(rand.NewPCG(a, b))
}
