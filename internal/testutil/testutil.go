// Package testutil holds helpers shared by the repository's tests.
package testutil

import (
	"math"
	"testing"
)

// Almost fails the test unless got is within tol·(1+|want|) of want;
// NaN matches only NaN.
func Almost(t testing.TB, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) || math.IsNaN(want) {
		if math.IsNaN(got) != math.IsNaN(want) {
			t.Fatalf("%s: got %v, want %v", msg, got, want)
		}
		return
	}
	if math.Abs(got-want) > tol*(1+math.Abs(want)) {
		t.Fatalf("%s: got %.15g, want %.15g (tol %g)", msg, got, want, tol)
	}
}
