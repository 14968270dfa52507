package cpu

// Words are the words the kernel choices read: CPUID leaf 0's highest
// leaf, leaf 1's ECX, leaf 7.0's EBX and XCR0.
type Words struct{ MaxLeaf, ECX1, EBX7, XCR0 uint32 }

// X86 holds this CPU's words.
var X86 = read()

// Feature bits: CPUID.1:ECX, CPUID.7.0:EBX and the XCR0 state components.
const (
	fma, osxsave, avx  = 1 << 12, 1 << 27, 1 << 28
	avx2, avx512f      = 1 << 5, 1 << 16
	avx512dq           = 1 << 17
	xSSE, xYMM         = 1 << 1, 1 << 2
	xOpmask, xZMM      = 1 << 5, 1<<6 | 1<<7 // k0–k7; upper halves of Z0–Z15 and Z16–Z31
	ymmState, zmmState = xSSE | xYMM, xSSE | xYMM | xOpmask | xZMM
)

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of extended control register 0, the state
// components the OS saves on a context switch.
func xgetbv() (eax uint32)

// read reads the words from the CPU. XGETBV faults where OSXSAVE is
// clear, and leaf 7 is meaningless below it; those words stay 0.
func read() (c Words) {
	c.MaxLeaf, _, _, _ = cpuid(0, 0)
	_, _, c.ECX1, _ = cpuid(1, 0)
	if c.ECX1&osxsave != 0 {
		c.XCR0 = xgetbv()
	}
	if c.MaxLeaf >= 7 {
		_, c.EBX7, _, _ = cpuid(7, 0)
	}
	return c
}

// AVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers it uses.
func (c Words) AVX2() bool {
	return c.MaxLeaf >= 7 && c.ECX1&(osxsave|avx) == osxsave|avx &&
		c.XCR0&ymmState == ymmState && c.EBX7&avx2 != 0
}

// FMA reports whether the CPU has FMA3 besides AVX2, with the YMM state
// saved. Go's math package takes its FMA paths exactly where the CPU has
// AVX and FMA3 and the OS saves YMM state, so FMA implies them.
func (c Words) FMA() bool { return c.AVX2() && c.ECX1&fma != 0 }

// AVX512 reports whether the CPU has AVX-512F and DQ (VXORPD and
// VEXTRACTF64X2 on Z registers are DQ), besides the AVX2 the kernels' VEX
// instructions need, and the OS saves the opmask and all of the Z
// registers.
func (c Words) AVX512() bool {
	return c.AVX2() && c.EBX7&(avx512f|avx512dq) == avx512f|avx512dq &&
		c.XCR0&zmmState == zmmState
}
