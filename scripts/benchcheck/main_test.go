package main

import (
	"os"
	"testing"
)

// TestCheckServeBaseline sanity-checks that the validator still accepts
// the committed BENCH_serve.json.
func TestCheckServeBaseline(t *testing.T) {
	if _, err := os.Stat("../../BENCH_serve.json"); err != nil {
		t.Skip("no committed BENCH_serve.json")
	}
	if err := check("../../BENCH_serve.json"); err != nil {
		t.Fatalf("committed BENCH_serve.json no longer passes: %v", err)
	}
}
