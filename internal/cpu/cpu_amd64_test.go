package cpu

import "testing"

// TestFeatureChecks holds the checks to the CPUID and XCR0 words: a
// kernel set runs only where the CPU has its instructions and the OS
// saves the registers it uses.
func TestFeatureChecks(t *testing.T) {
	full := Words{
		MaxLeaf: 0xd,
		ECX1:    osxsave | avx | fma,
		EBX7:    avx2 | avx512f | avx512dq,
		XCR0:    zmmState | 1, // x87 state too, as every OS saves it
	}
	for _, tc := range []struct {
		name              string
		edit              func(c *Words)
		avx2, fma, avx512 bool
	}{
		{"full set", func(*Words) {}, true, true, true},
		{"ZMM state not saved", func(c *Words) { c.XCR0 &^= xOpmask | xZMM }, true, true, false},
		{"opmask state not saved", func(c *Words) { c.XCR0 &^= xOpmask }, true, true, false},
		{"upper ZMM16–31 not saved", func(c *Words) { c.XCR0 &^= 1 << 7 }, true, true, false},
		{"AVX-512F without DQ", func(c *Words) { c.EBX7 &^= avx512dq }, true, true, false},
		{"DQ without AVX-512F", func(c *Words) { c.EBX7 &^= avx512f }, true, true, false},
		{"AVX2 only", func(c *Words) { c.EBX7 = avx2; c.XCR0 = ymmState }, true, true, false},
		{"no FMA3", func(c *Words) { c.ECX1 &^= fma }, true, false, true},
		{"FMA3 without AVX2", func(c *Words) { c.EBX7 &^= avx2 }, false, false, false},
		{"YMM state not saved", func(c *Words) { c.XCR0 &^= xYMM }, false, false, false},
		{"OSXSAVE clear", func(c *Words) { c.ECX1 &^= osxsave; c.XCR0 = 0 }, false, false, false},
		{"AVX clear", func(c *Words) { c.ECX1 &^= avx }, false, false, false},
		{"no leaf 7", func(c *Words) { c.MaxLeaf = 6 }, false, false, false},
	} {
		c := full
		tc.edit(&c)
		if got := c.AVX2(); got != tc.avx2 {
			t.Errorf("%s: AVX2 = %v, want %v", tc.name, got, tc.avx2)
		}
		if got := c.FMA(); got != tc.fma {
			t.Errorf("%s: FMA = %v, want %v", tc.name, got, tc.fma)
		}
		if got := c.AVX512(); got != tc.avx512 {
			t.Errorf("%s: AVX512 = %v, want %v", tc.name, got, tc.avx512)
		}
	}
	if X86 != read() {
		t.Error("X86 differs from a second reading of the CPU")
	}
	t.Logf("this host: AVX2 %v, FMA %v, AVX-512 %v", X86.AVX2(), X86.FMA(), X86.AVX512())
}
