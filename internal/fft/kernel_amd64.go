package fft

// The AVX2 kernels (kernel_amd64.s) run two complex lanes per register
// and perform exactly the float64 operations of their Go twins: a complex
// product is two VMULPD and one VADDSUBPD, with no fused multiply-add; a
// negation is a sign-bit flip, as Go negates; x − y is x + (−y) where a
// lane pair mixes sums and differences, which IEEE 754 defines to be the
// same.

//go:noescape
func firstAVX2(a []complex128)

//go:noescape
func blocks8AVX2(a []complex128, w *[2][3]complex128)

//go:noescape
func twiddledAVX2(a []complex128, row [][3]complex128)

// splitPairsAVX2 runs splitFrom for k = 1..2·pairs, bins k and k+1 in
// the two lanes; every k+1 must be below m/2.
//
//go:noescape
func splitPairsAVX2(out, z, g, tw []complex128, rev []int32, sc float64, pairs int)

func splitAVX2(out, z, g, tw []complex128, rev []int32, sc float64) {
	pairs := (len(z)/2 - 1) / 2
	if pairs > 0 {
		splitPairsAVX2(out, z, g, tw, rev, sc, pairs)
	}
	splitFrom(out, z, g, tw, rev, sc, 1+2*pairs)
}

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of extended control register 0, the state
// components the OS saves on a context switch.
func xgetbv() (eax uint32)

func init() {
	if hasAVX2() {
		vector = &kernelSet{firstAVX2, blocks8AVX2, twiddledAVX2, splitAVX2}
		kernel = vector
	}
}

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers it uses.
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const sse, ymm = 1 << 1, 1 << 2
	if xgetbv()&(sse|ymm) != sse|ymm {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}
