#include "textflag.h"

// A Z register holds four complex128 values, (re, im) × 4. Every pass
// computes what its Go twin in fft.go computes, lane for lane and in the
// same order; kernel_test.go holds the two to identical bits. Where a
// lane pair mixes x + y and x − y, the difference is x + (−y): AVX-512
// has no VADDSUBPD.

DATA negZero<>+0(SB)/8, $0x8000000000000000
GLOBL negZero<>(SB), RODATA|NOPTR, $8

DATA half512<>+0(SB)/8, $0x3fe0000000000000
GLOBL half512<>(SB), RODATA|NOPTR, $8

// SIGNS sets K1 to the real elements and K2 to the imaginary ones, Z13 to
// the sign bit in the real elements and Z15 in the imaginary ones (zero
// elsewhere). AX is clobbered.
#define SIGNS \
	MOVL           $0x55, AX; \
	KMOVW          AX, K1; \
	MOVL           $0xaa, AX; \
	KMOVW          AX, K2; \
	VBROADCASTSD.Z negZero<>(SB), K1, Z13; \
	VBROADCASTSD.Z negZero<>(SB), K2, Z15

// CMUL sets z = w·q from wr = (w.r, w.r) and wi = (w.i, w.i) lane by
// lane, either a register or memory: t = (w.r·q.r, w.r·q.i), z = (w.i·q.i,
// w.i·q.r), its real part negated, and z + t is Go's complex product
// (w.r·q.r − w.i·q.i, w.r·q.i + w.i·q.r). z may be q. Z13 holds SIGNS'.
#define CMUL(wr, wi, q, z, t) \
	VMULPD    wr, q, t; \
	VPERMILPD $0x55, q, z; \
	VMULPD    wi, z, z; \
	VXORPD    Z13, z, z; \
	VADDPD    z, t, z

// RADIX4 takes q0 in Z4 and the twiddled t1, t2, t3 in Z5, Z6, Z7 and
// leaves s+u, d+v, s−u, d−v there, where s, d = q0 ± t1, u = t2 + t3
// and v = −i·(t2 − t3). Z15 holds SIGNS'; Z0–Z3 are clobbered.
#define RADIX4 \
	VADDPD    Z5, Z4, Z0; \
	VSUBPD    Z5, Z4, Z1; \
	VADDPD    Z7, Z6, Z2; \
	VSUBPD    Z7, Z6, Z3; \
	VPERMILPD $0x55, Z3, Z3; \
	VXORPD    Z15, Z3, Z3; \
	VADDPD    Z2, Z0, Z4; \
	VADDPD    Z3, Z1, Z5; \
	VSUBPD    Z2, Z0, Z6; \
	VSUBPD    Z3, Z1, Z7

// func twiddledAVX512(a []complex128, quads []twQuad)
// One radix-4 pass of half-span h = 4·len(quads): every block of 4h,
// four j per iteration, the twiddles read as multiplication operands.
TEXT ·twiddledAVX512(SB), NOSPLIT, $0-48
	MOVQ a_base+0(FP), DI
	MOVQ a_len+8(FP), R9
	MOVQ quads_base+24(FP), SI
	MOVQ quads_len+32(FP), R8
	SHLQ $4, R9
	ADDQ DI, R9                    // end of a
	SHLQ $6, R8                    // 16h: q0 to q1
	LEAQ (R8)(R8*2), R10           // 48h: q0 to q3
	SIGNS

twBlock:
	CMPQ DI, R9
	JAE  twDone
	MOVQ DI, R12                   // &q0[j]
	MOVQ SI, R11                   // &quads[j/4]
	LEAQ (DI)(R8*1), R13           // end of q0

twQuad:
	VMOVUPD (R12), Z4
	VMOVUPD (R12)(R8*1), Z5
	VMOVUPD (R12)(R8*2), Z6
	VMOVUPD (R12)(R10*1), Z7
	CMUL((R11), 64(R11), Z5, Z5, Z8)     // w²
	CMUL(128(R11), 192(R11), Z6, Z6, Z8) // w
	CMUL(256(R11), 320(R11), Z7, Z7, Z8) // w³
	RADIX4
	VMOVUPD Z4, (R12)
	VMOVUPD Z5, (R12)(R8*1)
	VMOVUPD Z6, (R12)(R8*2)
	VMOVUPD Z7, (R12)(R10*1)
	ADDQ    $384, R11
	ADDQ    $64, R12
	CMPQ    R12, R13
	JB      twQuad
	LEAQ    (R13)(R10*1), DI       // next block: q0's end + 48h
	JMP     twBlock

twDone:
	VZEROUPPER
	RET

// func splitQuadsAVX512(out, z, g, tw []complex128, rev []int32, sc float64, quads int)
// splitFrom's walk, bins k..k+3 in the lanes: the low-index loads (z, g,
// tw at k) are direct, the high-index ones (z, g at m−k−3..m−k) have
// their lanes reversed so lane 0 is m−k. Each result lane goes to out at
// its own bit-reversed index.
TEXT ·splitQuadsAVX512(SB), NOSPLIT, $0-136
	SIGNS
	MOVQ         out_base+0(FP), DI
	MOVQ         z_base+24(FP), SI
	MOVQ         z_len+32(FP), R10
	MOVQ         g_base+48(FP), DX
	MOVQ         tw_base+72(FP), R8
	MOVQ         rev_base+96(FP), R9
	MOVQ         quads+128(FP), CX
	LEAQ         -4(R10), R11
	LEAQ         16(SI), AX                  // &z[k]
	MOVQ         R11, BX
	SHLQ         $4, BX
	ADDQ         SI, BX                      // &z[m−k−3]
	LEAQ         16(DX), R13                 // &g[k]
	MOVQ         R11, R14
	SHLQ         $4, R14
	ADDQ         DX, R14                     // &g[m−k−3]
	ADDQ         $16, R8                     // &tw[k]
	LEAQ         4(R9), R12                  // &rev[k]
	LEAQ         (R9)(R11*4), R9             // &rev[m−k−3]
	VBROADCASTSD negZero<>(SB), Z14
	VBROADCASTSD half512<>(SB), Z11
	VBROADCASTSD sc+120(FP), Z12
	VXORPD       Z15, Z12, Z12               // sc, −sc

splitLoop:
	VMOVUPD    (AX), Z0                      // a = z[k]
	VMOVUPD    (BX), Z1
	VSHUFF64X2 $0x1b, Z1, Z1, Z1             // b = z[m−k]
	VXORPD     Z15, Z1, Z2
	VADDPD     Z2, Z0, Z2                    // e = (a.r + b.r, a.i − b.i)
	VPERMILPD  $0x55, Z0, Z3
	VXORPD     Z15, Z3, Z3
	VPERMILPD  $0x55, Z1, Z0
	VADDPD     Z3, Z0, Z3                    // o = (a.i + b.i, b.r − a.r)
	VMOVUPD    (R8), Z0
	VMOVDDUP   Z0, Z4
	VPERMILPD  $0xff, Z0, Z5                 // w
	CMUL(Z4, Z5, Z3, Z6, Z7)                 // wo = w·o
	VADDPD     Z6, Z2, Z7
	VMULPD     Z11, Z7, Z7                   // 0.5·(e + wo)
	VSUBPD     Z6, Z2, Z8
	VSUBPD     Z2, Z6, K2, Z8
	VMULPD     Z11, Z8, Z8                   // 0.5·(e.r − wo.r, wo.i − e.i)
	VMOVUPD    (R13), Z0                     // g[k]
	VMOVUPD    (R14), Z1
	VSHUFF64X2 $0x1b, Z1, Z1, Z1             // g[m−k]
	VMOVDDUP   Z7, Z2
	VPERMILPD  $0xff, Z7, Z3
	CMUL(Z2, Z3, Z0, Z7, Z6)                 // ya
	VMOVDDUP   Z8, Z2
	VPERMILPD  $0xff, Z8, Z3
	CMUL(Z2, Z3, Z1, Z8, Z6)                 // yb
	VXORPD     Z15, Z8, Z2
	VADDPD     Z2, Z7, Z2                    // e = (ya.r + yb.r, ya.i − yb.i)
	VXORPD     Z13, Z8, Z3
	VADDPD     Z3, Z7, Z3                    // d = (ya.r − yb.r, ya.i + yb.i)
	VXORPD     Z14, Z5, Z5                   // −w.i
	CMUL(Z4, Z5, Z3, Z6, Z0)                 // o = conj(w)·d
	VPERMILPD  $0x55, Z6, Z1                 // o.i, o.r
	VADDPD     Z1, Z2, Z0                    // e.r + o.i, e.i + o.r
	VMOVAPD    Z0, Z3
	VSUBPD     Z1, Z2, K1, Z0                // e.r − o.i, e.i + o.r
	VMULPD     Z12, Z0, Z0                   // out at k
	VSUBPD     Z2, Z1, K2, Z3                // e.r + o.i, o.r − e.i
	VMULPD     Z12, Z3, Z3                   // out at m−k
	MOVLQSX    (R12), R11
	SHLQ       $4, R11
	VMOVUPD    X0, (DI)(R11*1)
	MOVLQSX    4(R12), R11
	SHLQ       $4, R11
	VEXTRACTF64X2 $1, Z0, (DI)(R11*1)
	MOVLQSX    8(R12), R11
	SHLQ       $4, R11
	VEXTRACTF64X2 $2, Z0, (DI)(R11*1)
	MOVLQSX    12(R12), R11
	SHLQ       $4, R11
	VEXTRACTF64X2 $3, Z0, (DI)(R11*1)
	MOVLQSX    12(R9), R11
	SHLQ       $4, R11
	VMOVUPD    X3, (DI)(R11*1)
	MOVLQSX    8(R9), R11
	SHLQ       $4, R11
	VEXTRACTF64X2 $1, Z3, (DI)(R11*1)
	MOVLQSX    4(R9), R11
	SHLQ       $4, R11
	VEXTRACTF64X2 $2, Z3, (DI)(R11*1)
	MOVLQSX    (R9), R11
	SHLQ       $4, R11
	VEXTRACTF64X2 $3, Z3, (DI)(R11*1)
	ADDQ       $64, AX
	SUBQ       $64, BX
	ADDQ       $64, R13
	SUBQ       $64, R14
	ADDQ       $64, R8
	ADDQ       $16, R12
	SUBQ       $16, R9
	DECQ       CX
	JNZ        splitLoop
	VZEROUPPER
	RET
