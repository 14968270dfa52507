package fft

import (
	"testing"

	"dtr/internal/cpu"
)

// TestCPUFeatureChecks holds the kernel choice to the CPU's words: start-up
// picks the widest set the host passes (internal/cpu tests the checks).
func TestCPUFeatureChecks(t *testing.T) {
	want, name := &goKernel, "go"
	if cpu.X86.AVX2() {
		want, name = vector, "avx2"
	}
	if cpu.X86.AVX512() {
		want, name = vector512, "avx512"
	}
	if kernel != want {
		t.Errorf("the default kernel is not %s, the widest set this host passes", name)
	}
	t.Logf("this host runs the %s kernel", name)
}
