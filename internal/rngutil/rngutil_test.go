package rngutil

import (
	"math"
	"testing"
)

func TestStreamDeterminism(t *testing.T) {
	a := Stream(42, 3)
	b := Stream(42, 3)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same (seed, stream) must reproduce the same sequence")
		}
	}
}

func TestStreamsDiffer(t *testing.T) {
	a := Stream(42, 0)
	b := Stream(42, 1)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams 0 and 1 collided %d times in 64 draws", same)
	}
	c := Stream(42, 0)
	d := Stream(43, 0)
	same = 0
	for i := 0; i < 64; i++ {
		if c.Uint64() == d.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 42 and 43 collided %d times in 64 draws", same)
	}
}

func TestStreamUniformity(t *testing.T) {
	// Crude sanity: mean of uniforms near 0.5, no stuck generator.
	r := Stream(7, 11)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %g", mean)
	}
}
