#include "textflag.h"

// A Y register holds two complex128 values, (re, im, re, im). Every pass
// computes what its Go twin in fft.go computes, lane for lane and in the
// same order; kernel_test.go holds the two to identical bits.

// Sign bits that negate the imaginary part of both lanes (−i·v = (v.i,
// −v.r) after a swap) or of the upper lane only.
DATA signOdd<>+0(SB)/8, $0
DATA signOdd<>+8(SB)/8, $0x8000000000000000
DATA signOdd<>+16(SB)/8, $0
DATA signOdd<>+24(SB)/8, $0x8000000000000000
GLOBL signOdd<>(SB), RODATA|NOPTR, $32

DATA signHigh<>+0(SB)/8, $0
DATA signHigh<>+8(SB)/8, $0
DATA signHigh<>+16(SB)/8, $0
DATA signHigh<>+24(SB)/8, $0x8000000000000000
GLOBL signHigh<>(SB), RODATA|NOPTR, $32

DATA signBit<>+0(SB)/8, $0x8000000000000000
GLOBL signBit<>(SB), RODATA|NOPTR, $8

DATA half<>+0(SB)/8, $0x3fe0000000000000
GLOBL half<>(SB), RODATA|NOPTR, $8

// SPLIT leaves (w.r, w.r) in wr and (w.i, w.i) in wi, lane by lane.
#define SPLIT(w, wr, wi) \
	VMOVDDUP  w, wr; \
	VPERMILPD $15, w, wi

// CMUL sets z = w·q from SPLIT's wr, wi: t = (w.r·q.r, w.r·q.i), z =
// (w.i·q.i, w.i·q.r), then VADDSUBPD gives Go's complex product
// (w.r·q.r − w.i·q.i, w.r·q.i + w.i·q.r). z may be q.
#define CMUL(wr, wi, q, z, t) \
	VMULPD    q, wr, t; \
	VPERMILPD $5, q, z; \
	VMULPD    z, wi, z; \
	VADDSUBPD z, t, z

// RADIX4 takes q0 in Y4 and the twiddled t1, t2, t3 in Y5, Y6, Y7 and
// leaves s+u, d+v, s−u, d−v there, where s, d = q0 ± t1, u = t2 + t3
// and v = −i·(t2 − t3). Y15 holds signOdd; Y0–Y3 are clobbered.
#define RADIX4 \
	VADDPD    Y5, Y4, Y0; \
	VSUBPD    Y5, Y4, Y1; \
	VADDPD    Y7, Y6, Y2; \
	VSUBPD    Y7, Y6, Y3; \
	VPERMILPD $5, Y3, Y3; \
	VXORPD    Y15, Y3, Y3; \
	VADDPD    Y2, Y0, Y4; \
	VADDPD    Y3, Y1, Y5; \
	VSUBPD    Y2, Y0, Y6; \
	VSUBPD    Y3, Y1, Y7

// func firstAVX2(a []complex128)
// The unit-twiddle radix-4 pass, one group of 4 per iteration.
TEXT ·firstAVX2(SB), NOSPLIT, $0-24
	MOVQ    a_base+0(FP), DI
	MOVQ    a_len+8(FP), CX
	SHRQ    $2, CX
	JZ      firstDone
	VMOVUPD signHigh<>(SB), Y15

firstLoop:
	VMOVUPD    (DI), Y0            // a0, a1
	VMOVUPD    32(DI), Y1          // a2, a3
	VPERM2F128 $0x20, Y1, Y0, Y2   // a0, a2
	VPERM2F128 $0x31, Y1, Y0, Y3   // a1, a3
	VADDPD     Y3, Y2, Y4          // s, u
	VSUBPD     Y3, Y2, Y5          // d, v
	VPERMILPD  $6, Y5, Y5          // d, swapped v
	VXORPD     Y15, Y5, Y5         // d, −i·v
	VPERM2F128 $0x20, Y5, Y4, Y6   // s, d
	VPERM2F128 $0x31, Y5, Y4, Y7   // u, −i·v
	VADDPD     Y7, Y6, Y0
	VSUBPD     Y7, Y6, Y1
	VMOVUPD    Y0, (DI)
	VMOVUPD    Y1, 32(DI)
	ADDQ       $64, DI
	DECQ       CX
	JNZ        firstLoop
	VZEROUPPER

firstDone:
	RET

// func blocks8AVX2(a []complex128, w *[2][3]complex128)
// The radix-2 stage and the pass of half-span 2, one block of 8 per
// iteration: the pass's j = 0 and j = 1 are the two lanes.
TEXT ·blocks8AVX2(SB), NOSPLIT, $0-32
	MOVQ        a_base+0(FP), DI
	MOVQ        a_len+8(FP), CX
	MOVQ        w+24(FP), SI
	SHRQ        $3, CX
	JZ          blocksDone
	VMOVUPD     (SI), X0
	VINSERTF128 $1, 48(SI), Y0, Y0 // w² of j = 0, 1
	VMOVUPD     16(SI), X1
	VINSERTF128 $1, 64(SI), Y1, Y1 // w
	VMOVUPD     32(SI), X2
	VINSERTF128 $1, 80(SI), Y2, Y2 // w³
	SPLIT(Y0, Y8, Y9)
	SPLIT(Y1, Y10, Y11)
	SPLIT(Y2, Y12, Y13)
	VMOVUPD     signOdd<>(SB), Y15

blocksLoop:
	VMOVUPD    (DI), Y0            // b0, b1
	VMOVUPD    32(DI), Y1          // b2, b3
	VMOVUPD    64(DI), Y2          // b4, b5
	VMOVUPD    96(DI), Y3          // b6, b7
	VPERM2F128 $0x20, Y1, Y0, Y4   // b0, b2
	VPERM2F128 $0x31, Y1, Y0, Y5   // b1, b3
	VADDPD     Y5, Y4, Y0          // c0, c2
	VSUBPD     Y5, Y4, Y1          // c1, c3
	VPERM2F128 $0x20, Y3, Y2, Y4   // b4, b6
	VPERM2F128 $0x31, Y3, Y2, Y5   // b5, b7
	VADDPD     Y5, Y4, Y2          // c4, c6
	VSUBPD     Y5, Y4, Y3          // c5, c7
	VPERM2F128 $0x20, Y1, Y0, Y4   // q0 = c0, c1
	VPERM2F128 $0x31, Y1, Y0, Y5   // q1 = c2, c3
	VPERM2F128 $0x20, Y3, Y2, Y6   // q2 = c4, c5
	VPERM2F128 $0x31, Y3, Y2, Y7   // q3 = c6, c7
	CMUL(Y8, Y9, Y5, Y5, Y14)
	CMUL(Y10, Y11, Y6, Y6, Y14)
	CMUL(Y12, Y13, Y7, Y7, Y14)
	RADIX4
	VMOVUPD    Y4, (DI)
	VMOVUPD    Y5, 32(DI)
	VMOVUPD    Y6, 64(DI)
	VMOVUPD    Y7, 96(DI)
	ADDQ       $128, DI
	DECQ       CX
	JNZ        blocksLoop
	VZEROUPPER

blocksDone:
	RET

// func twiddledAVX2(a []complex128, row [][3]complex128)
// One radix-4 pass of half-span h = len(row) (even): every block of 4h,
// two j per iteration.
TEXT ·twiddledAVX2(SB), NOSPLIT, $0-48
	MOVQ    a_base+0(FP), DI
	MOVQ    a_len+8(FP), R9
	MOVQ    row_base+24(FP), SI
	MOVQ    row_len+32(FP), R8
	SHLQ    $4, R9
	ADDQ    DI, R9                 // end of a
	SHLQ    $4, R8                 // 16h: q0 to q1
	LEAQ    (R8)(R8*2), R10        // 48h: q0 to q3
	VMOVUPD signOdd<>(SB), Y15

twBlock:
	CMPQ DI, R9
	JAE  twDone
	MOVQ DI, R12                   // &q0[j]
	MOVQ SI, R11                   // &row[j]
	LEAQ (DI)(R8*1), R13           // end of q0

twPair:
	VMOVUPD     (R11), X8
	VINSERTF128 $1, 48(R11), Y8, Y8   // w² of j, j+1
	VMOVUPD     16(R11), X9
	VINSERTF128 $1, 64(R11), Y9, Y9   // w
	VMOVUPD     32(R11), X10
	VINSERTF128 $1, 80(R11), Y10, Y10 // w³
	VMOVUPD     (R12), Y4
	VMOVUPD     (R12)(R8*1), Y5
	VMOVUPD     (R12)(R8*2), Y6
	VMOVUPD     (R12)(R10*1), Y7
	SPLIT(Y8, Y11, Y12)
	CMUL(Y11, Y12, Y5, Y5, Y14)
	SPLIT(Y9, Y11, Y12)
	CMUL(Y11, Y12, Y6, Y6, Y14)
	SPLIT(Y10, Y11, Y12)
	CMUL(Y11, Y12, Y7, Y7, Y14)
	RADIX4
	VMOVUPD     Y4, (R12)
	VMOVUPD     Y5, (R12)(R8*1)
	VMOVUPD     Y6, (R12)(R8*2)
	VMOVUPD     Y7, (R12)(R10*1)
	ADDQ        $96, R11
	ADDQ        $32, R12
	CMPQ        R12, R13
	JB          twPair
	LEAQ        (R13)(R10*1), DI   // next block: q0's end + 48h
	JMP         twBlock

twDone:
	VZEROUPPER
	RET

// func splitPairsAVX2(out, z, g, tw []complex128, rev []int32, sc float64, pairs int)
// splitFrom's walk, bins k and k+1 in the lanes: the low-index loads
// (z, g, tw at k) are direct, the high-index ones (z, g at m−k−1, m−k)
// have their halves swapped so lane 0 is m−k. Each result lane goes to
// out at its own bit-reversed index.
TEXT ·splitPairsAVX2(SB), NOSPLIT, $0-136
	MOVQ         out_base+0(FP), DI
	MOVQ         z_base+24(FP), SI
	MOVQ         z_len+32(FP), R10
	MOVQ         g_base+48(FP), DX
	MOVQ         tw_base+72(FP), R8
	MOVQ         rev_base+96(FP), R9
	MOVQ         pairs+128(FP), CX
	LEAQ         -2(R10), R11
	LEAQ         16(SI), AX                  // &z[k]
	MOVQ         R11, BX
	SHLQ         $4, BX
	LEAQ         (SI)(BX*1), BX              // &z[m−k−1]
	LEAQ         16(DX), R13                 // &g[k]
	MOVQ         R11, R14
	SHLQ         $4, R14
	ADDQ         DX, R14                     // &g[m−k−1]
	ADDQ         $16, R8                     // &tw[k]
	LEAQ         4(R9), R12                  // &rev[k]
	LEAQ         (R9)(R11*4), R9             // &rev[m−k−1]
	VMOVUPD      signOdd<>(SB), Y15
	VBROADCASTSD signBit<>(SB), Y14
	VBROADCASTSD half<>(SB), Y13
	VBROADCASTSD sc+120(FP), Y12
	VXORPD       Y15, Y12, Y12               // sc, −sc

splitLoop:
	VMOVUPD    (AX), Y0                      // a = z[k]
	VMOVUPD    (BX), Y1
	VPERM2F128 $0x01, Y1, Y1, Y1             // b = z[m−k]
	VXORPD     Y15, Y1, Y2
	VADDPD     Y2, Y0, Y2                    // e = (a.r + b.r, a.i − b.i)
	VPERMILPD  $5, Y0, Y3
	VXORPD     Y15, Y3, Y3
	VPERMILPD  $5, Y1, Y0
	VADDPD     Y3, Y0, Y3                    // o = (a.i + b.i, b.r − a.r)
	VMOVUPD    (R8), Y0
	SPLIT(Y0, Y4, Y5)                        // w
	CMUL(Y4, Y5, Y3, Y6, Y7)                 // wo = w·o
	VADDPD     Y6, Y2, Y7
	VMULPD     Y13, Y7, Y7                   // 0.5·(e + wo)
	VBLENDPD   $10, Y6, Y2, Y8               // e.r, wo.i
	VBLENDPD   $10, Y2, Y6, Y9               // wo.r, e.i
	VSUBPD     Y9, Y8, Y8
	VMULPD     Y13, Y8, Y8                   // 0.5·(e.r − wo.r, wo.i − e.i)
	VMOVUPD    (R13), Y0                     // g[k]
	VMOVUPD    (R14), Y1
	VPERM2F128 $0x01, Y1, Y1, Y1             // g[m−k]
	SPLIT(Y7, Y2, Y3)
	CMUL(Y2, Y3, Y0, Y7, Y6)                 // ya
	SPLIT(Y8, Y2, Y3)
	CMUL(Y2, Y3, Y1, Y8, Y6)                 // yb
	VXORPD     Y15, Y8, Y2
	VADDPD     Y2, Y7, Y2                    // e = (ya.r + yb.r, ya.i − yb.i)
	VADDSUBPD  Y8, Y7, Y3                    // d = (ya.r − yb.r, ya.i + yb.i)
	VXORPD     Y14, Y5, Y5                   // −w.i
	CMUL(Y4, Y5, Y3, Y6, Y0)                 // o = conj(w)·d
	VPERMILPD  $5, Y6, Y1                    // o.i, o.r
	VADDSUBPD  Y1, Y2, Y0
	VMULPD     Y12, Y0, Y0                   // out at k
	VBLENDPD   $10, Y1, Y2, Y3               // e.r, o.r
	VBLENDPD   $10, Y2, Y1, Y4               // o.i, e.i
	VXORPD     Y15, Y4, Y4
	VADDPD     Y4, Y3, Y3
	VMULPD     Y12, Y3, Y3                   // out at m−k
	MOVLQSX    (R12), R11
	SHLQ       $4, R11
	VMOVUPD    X0, (DI)(R11*1)
	MOVLQSX    4(R12), R11
	SHLQ       $4, R11
	VEXTRACTF128 $1, Y0, X0
	VMOVUPD    X0, (DI)(R11*1)
	MOVLQSX    4(R9), R11
	SHLQ       $4, R11
	VMOVUPD    X3, (DI)(R11*1)
	MOVLQSX    (R9), R11
	SHLQ       $4, R11
	VEXTRACTF128 $1, Y3, X3
	VMOVUPD    X3, (DI)(R11*1)
	ADDQ       $32, AX
	SUBQ       $32, BX
	ADDQ       $32, R13
	SUBQ       $32, R14
	ADDQ       $32, R8
	ADDQ       $8, R12
	SUBQ       $8, R9
	DECQ       CX
	JNZ        splitLoop
	VZEROUPPER
	RET
