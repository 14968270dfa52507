package fft

import "dtr/internal/cpu"

// The assembly kernels perform exactly the float64 operations of their Go
// twins, with no fused multiply-add: the AVX2 set (kernel_amd64.s) runs
// two complex lanes per Y register, the AVX-512 set (kernel512_amd64.s)
// four per Z register. A negation is a sign-bit flip, as Go negates. A
// complex product is two VMULPD and a VADDSUBPD in AVX2; AVX-512 has no
// VADDSUBPD, so there the product's difference is a sign-bit flip on the
// real lanes and a VADDPD. That is sound wherever a lane pair mixes sums
// and differences: x − y is x + (−y), which IEEE 754 defines to be the
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

//go:noescape
func twiddledAVX512(a []complex128, quads []twQuad)

// splitQuadsAVX512 runs splitFrom for k = 1..4·quads, bins k..k+3 in the
// four lanes; every k+3 must be below m/2.
//
//go:noescape
func splitQuadsAVX512(out, z, g, tw []complex128, rev []int32, sc float64, quads int)

// avx512Set is the AVX-512 kernel set. Its first and block-of-8 passes
// are the AVX2 ones: four lanes bought too little there to keep a second
// copy (DESIGN.md §13, "Each member earns its place"), and every host
// that passes the AVX-512 check passes the AVX2 one.
var avx512Set = kernelSet{
	first:    firstAVX2,
	blocks8:  blocks8AVX2,
	twiddled: func(a []complex128, _ [][3]complex128, quads []twQuad) { twiddledAVX512(a, quads) },
	split: func(out, z, g, tw []complex128, rev []int32, sc float64) {
		quads := (len(z)/2 - 1) / 4
		if quads > 0 {
			splitQuadsAVX512(out, z, g, tw, rev, sc, quads)
		}
		splitFrom(out, z, g, tw, rev, sc, 1+4*quads)
	},
}

func init() {
	if cpu.X86.AVX2() {
		vector = &kernelSet{firstAVX2, blocks8AVX2,
			func(a []complex128, row [][3]complex128, _ []twQuad) { twiddledAVX2(a, row) }, splitAVX2}
		kernel = vector
	}
	if cpu.X86.AVX512() {
		vector512 = &avx512Set
		kernel = vector512
	}
}
