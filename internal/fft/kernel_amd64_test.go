package fft

import "testing"

// TestCPUFeatureChecks holds the kernel choice to the CPUID and XCR0
// words: a set runs only where the CPU has its instructions and the OS
// saves the registers it uses, and start-up picks the widest such set.
func TestCPUFeatureChecks(t *testing.T) {
	full := cpuWords{
		maxLeaf: 0xd,
		ecx1:    osxsave | avx,
		ebx7:    avx2 | avx512f | avx512dq,
		xcr0:    zmmState | 1, // x87 state too, as every OS saves it
	}
	for _, tc := range []struct {
		name         string
		edit         func(c *cpuWords)
		avx2, avx512 bool
	}{
		{"full set", func(*cpuWords) {}, true, true},
		{"ZMM state not saved", func(c *cpuWords) { c.xcr0 &^= xOpmask | xZMM }, true, false},
		{"opmask state not saved", func(c *cpuWords) { c.xcr0 &^= xOpmask }, true, false},
		{"upper ZMM16–31 not saved", func(c *cpuWords) { c.xcr0 &^= 1 << 7 }, true, false},
		{"AVX-512F without DQ", func(c *cpuWords) { c.ebx7 &^= avx512dq }, true, false},
		{"DQ without AVX-512F", func(c *cpuWords) { c.ebx7 &^= avx512f }, true, false},
		{"AVX2 only", func(c *cpuWords) { c.ebx7 = avx2; c.xcr0 = ymmState }, true, false},
		{"YMM state not saved", func(c *cpuWords) { c.xcr0 &^= xYMM }, false, false},
		{"OSXSAVE clear", func(c *cpuWords) { c.ecx1 &^= osxsave; c.xcr0 = 0 }, false, false},
		{"AVX clear", func(c *cpuWords) { c.ecx1 &^= avx }, false, false},
		{"no leaf 7", func(c *cpuWords) { c.maxLeaf = 6 }, false, false},
	} {
		c := full
		tc.edit(&c)
		if got := hasAVX2(c); got != tc.avx2 {
			t.Errorf("%s: hasAVX2 = %v, want %v", tc.name, got, tc.avx2)
		}
		if got := hasAVX512(c); got != tc.avx512 {
			t.Errorf("%s: hasAVX512 = %v, want %v", tc.name, got, tc.avx512)
		}
	}

	c := readCPU()
	want, name := &goKernel, "go"
	if hasAVX2(c) {
		want, name = vector, "avx2"
	}
	if hasAVX512(c) {
		want, name = vector512, "avx512"
	}
	if kernel != want {
		t.Errorf("the default kernel is not %s, the widest set this host passes", name)
	}
	t.Logf("this host runs the %s kernel", name)
}
