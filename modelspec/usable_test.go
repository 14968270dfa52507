package modelspec_test

import (
	"testing"

	"dtr"
	"dtr/modelspec"
)

// TestSpecModelIsUsable: the built model drives the real solver. It
// lives outside package modelspec because the root package reaches
// modelspec (through dist/fit), so an in-package test cannot import it.
func TestSpecModelIsUsable(t *testing.T) {
	m, initial, err := modelspec.Load("../examples/specs/testbed.json")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := dtr.NewSystem(m, initial)
	if err != nil {
		t.Fatal(err)
	}
	sys.GridN = 1 << 12
	rel, err := sys.Reliability(dtr.Policy2(26, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rel <= 0 || rel >= 1 {
		t.Fatalf("reliability %g", rel)
	}
}
