#include "textflag.h"

// paretoCDFLanes computes 1 − math.Pow(xm/x, α) in four float64 lanes with
// the operations the Go 1.24 toolchain's math.Pow performs on amd64 for a
// base in [2⁻¹⁰²², 1]: archLog (log_amd64.s), archExp on its FMA path
// (exp_amd64.s), Frexp, the squaring loop and Ldexp, each step lane for
// lane and in the same order. The constants are the toolchain's, in its
// own spelling. A toolchain that changes any of them fails the bit tests
// in pareto_lanes_test.go.

// CONST4 lays out a constant four times over, a Y register's worth, so
// an instruction can read it as a memory operand.
#define CONST4(name, v) \
	DATA name<>+0(SB)/8, v; \
	DATA name<>+8(SB)/8, v; \
	DATA name<>+16(SB)/8, v; \
	DATA name<>+24(SB)/8, v; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

CONST4(minNormal, $0x0010000000000000) // 2⁻¹⁰²²
CONST4(mant, $0x000FFFFFFFFFFFFF)
CONST4(magic, $0x4330000000000000)     // 2⁵²: 2⁵² + e, an integer e < 2⁵², has e in its low bits
CONST4(magic1022, $0x43300000000003FE) // 2⁵² + 1022
CONST4(magic1023, $0x43300000000003FF) // 2⁵² + 1023
CONST4(bias1022, $1022)
CONST4(xeMin, $-4096)                  // pow's catastrophic-exponent bound, −1<<12
CONST4(intOne, $1)
CONST4(half, $0.5)
CONST4(one, $1.0)
CONST4(two, $2.0)

// archLog's constants.
CONST4(hsqrt2, $7.07106781186547524401e-01)
CONST4(ln2hi, $6.93147180369123816490e-01)
CONST4(ln2lo, $1.90821492927058770002e-10)
CONST4(l1, $6.666666666666735130e-01)
CONST4(l2, $3.999999999940941908e-01)
CONST4(l3, $2.857142874366239149e-01)
CONST4(l4, $2.222219843214978396e-01)
CONST4(l5, $1.818357216161805012e-01)
CONST4(l6, $1.531383769920937332e-01)
CONST4(l7, $1.479819860511658591e-01)

// archExp's constants; exprodata's 0.5, 1.0 and 2.0 are half, one and two.
CONST4(log2e, $1.4426950408889634073599246810018920)
CONST4(ln2u, $0.69314718055966295651160180568695068359375)
CONST4(ln2l, $0.28235290563031577122588448175013436025525412068e-12)
CONST4(sixteenth, $0.0625)
CONST4(e24, $1.6666666666666666667e-1)
CONST4(e32, $4.1666666666666666667e-2)
CONST4(e40, $8.3333333333333333333e-3)
CONST4(e48, $1.3888888888888888889e-3)
CONST4(e56, $1.9841269841269841270e-4)
CONST4(e64, $2.4801587301587301587e-5)

// func paretoCDFLanes(xs []float64, xm, yf float64, yi int64) (done int)
//
// Replaces xs[i] with 1 − math.Pow(xm/xs[i], yi+yf), four at a time, for
// xm > 0 and the split (yi, yf) math.Pow makes of an exponent above 1. A
// quad stops the walk, untouched, when a lane leaves the path the lanes
// take: xs[i] ≤ xm or NaN, a quotient below 2⁻¹⁰²², the squaring loop's
// exponent below −1<<12, or a result below 2⁻¹⁰²². done counts the
// points stored. On the path archExp's argument yf·Log(q) has |yf| ≤ ½
// and Log(q) ∈ [−709, 0], so it neither overflows nor goes subnormal
// there; q ≤ 1 keeps the result ≤ 1.
TEXT ·paretoCDFLanes(SB), NOSPLIT, $0-56
	MOVQ         xs_base+0(FP), DI
	MOVQ         xs_len+8(FP), CX
	VBROADCASTSD xm+24(FP), Y15
	VBROADCASTSD yf+32(FP), Y14
	MOVQ         yf+32(FP), R10
	MOVQ         yi+40(FP), R8
	VMOVUPD      xeMin<>(SB), Y12
	VMOVUPD      intOne<>(SB), Y11
	XORQ         AX, AX
	SHRQ         $2, CX
	JZ           done

quad:
	VMOVUPD   (DI), Y0
	VCMPPD    $0x0a, Y15, Y0, Y13            // !(x > xm)
	VDIVPD    Y0, Y15, Y1                    // q = xm/x
	VCMPPD    $0x09, minNormal<>(SB), Y1, Y2 // !(q ≥ 2⁻¹⁰²²)
	VORPD     Y2, Y13, Y13
	VMOVMSKPD Y13, BX
	TESTL     BX, BX
	JNZ       done

	// Frexp(q), which is also archLog's split: x1 = f1, q's mantissa at
	// exponent −1, and e, q's biased exponent.
	VANDPD  mant<>(SB), Y1, Y2
	VORPD   half<>(SB), Y2, Y2
	VPSRLQ  $52, Y1, Y3
	VMOVUPD one<>(SB), Y4     // a1 = 1
	TESTQ   R10, R10
	JZ      square            // yf = 0: no Exp(yf·Log q)

	// archLog(q).
	VPOR   magic<>(SB), Y3, Y5
	VSUBPD magic1022<>(SB), Y5, Y5         // k = e − 1022
	VCMPPD $0x02, hsqrt2<>(SB), Y2, Y6     // f1 ≤ Sqrt2/2, as archLog's cmpnlt
	VANDPD Y4, Y6, Y6
	VSUBPD Y6, Y5, Y5                      // k −= 1 there
	VADDPD Y4, Y6, Y6
	VMULPD Y6, Y2, Y6                      // f1 *= 2 there
	VSUBPD Y4, Y6, Y6                      // f = f1 − 1
	VADDPD two<>(SB), Y6, Y7
	VDIVPD Y7, Y6, Y7                      // s = f/(2+f)
	VMULPD Y7, Y7, Y8                      // s2
	VMULPD Y8, Y8, Y9                      // s4
	VMULPD l7<>(SB), Y9, Y10
	VADDPD l5<>(SB), Y10, Y10
	VMULPD Y9, Y10, Y10
	VADDPD l3<>(SB), Y10, Y10
	VMULPD Y9, Y10, Y10
	VADDPD l1<>(SB), Y10, Y10
	VMULPD Y10, Y8, Y8                     // t1 = s2·(L1+s4·(L3+s4·(L5+s4·L7)))
	VMULPD l6<>(SB), Y9, Y10
	VADDPD l4<>(SB), Y10, Y10
	VMULPD Y9, Y10, Y10
	VADDPD l2<>(SB), Y10, Y10
	VMULPD Y10, Y9, Y9                     // t2 = s4·(L2+s4·(L4+s4·L6))
	VADDPD Y9, Y8, Y8                      // R = t1 + t2
	VMULPD half<>(SB), Y6, Y9
	VMULPD Y6, Y9, Y9                      // hfsq = 0.5·f·f
	VADDPD Y9, Y8, Y8
	VMULPD Y8, Y7, Y7                      // s·(hfsq+R)
	VMULPD ln2lo<>(SB), Y5, Y8
	VADDPD Y8, Y7, Y7                      // … + k·Ln2Lo
	VSUBPD Y7, Y9, Y9
	VSUBPD Y6, Y9, Y9                      // (hfsq − …) − f
	VMULPD ln2hi<>(SB), Y5, Y5
	VSUBPD Y9, Y5, Y5                      // k·Ln2Hi − …

	// a1 = archExp(yf·Log q), the FMA path.
	VMULPD       Y14, Y5, Y5
	VMULPD       log2e<>(SB), Y5, Y6
	VCVTPD2DQY   Y6, X6
	VCVTDQ2PD    X6, Y6                    // k = round(x·LOG2E)
	VFNMADD231PD ln2u<>(SB), Y6, Y5
	VFNMADD231PD ln2l<>(SB), Y6, Y5
	VMULPD       sixteenth<>(SB), Y5, Y5
	VMOVUPD      e64<>(SB), Y7
	VFMADD213PD  e56<>(SB), Y5, Y7
	VFMADD213PD  e48<>(SB), Y5, Y7
	VFMADD213PD  e40<>(SB), Y5, Y7
	VFMADD213PD  e32<>(SB), Y5, Y7
	VFMADD213PD  e24<>(SB), Y5, Y7
	VFMADD213PD  half<>(SB), Y5, Y7
	VFMADD213PD  one<>(SB), Y5, Y7
	VMULPD       Y7, Y5, Y5
	VADDPD       two<>(SB), Y5, Y7
	VMULPD       Y7, Y5, Y5
	VADDPD       two<>(SB), Y5, Y7
	VMULPD       Y7, Y5, Y5
	VADDPD       two<>(SB), Y5, Y7
	VMULPD       Y7, Y5, Y5
	VADDPD       two<>(SB), Y5, Y7
	VFMADD213PD  one<>(SB), Y7, Y5
	VADDPD       magic1023<>(SB), Y6, Y6
	VPSLLQ       $52, Y6, Y6               // 2^k
	VMULPD       Y6, Y5, Y4

square:
	// a1·2^ae *= x1^yi by squaring, pow's loop: xe tracks x1's exponent.
	VPSUBQ bias1022<>(SB), Y3, Y3          // xe = e − 1022
	VPXOR  Y5, Y5, Y5                      // ae = 0
	MOVQ   R8, R9

squareLoop:
	TESTQ    R9, R9
	JZ       ldexp
	VPCMPGTQ Y3, Y12, Y6                   // xe < −1<<12
	VPOR     Y6, Y13, Y13
	TESTQ    $1, R9
	JZ       squareNext
	VMULPD   Y2, Y4, Y4                    // a1 *= x1
	VPADDQ   Y3, Y5, Y5                    // ae += xe

squareNext:
	VMULPD Y2, Y2, Y2                      // x1 *= x1
	VPADDQ Y3, Y3, Y3                      // xe <<= 1
	VCMPPD $0x01, half<>(SB), Y2, Y6       // x1 < .5
	VANDPD Y2, Y6, Y7
	VADDPD Y7, Y2, Y2                      // x1 += x1 there
	VPADDQ Y6, Y3, Y3                      // xe-- there
	SHRQ   $1, R9
	JMP    squareLoop

ldexp:
	// Ldexp(a1, ae) sets the exponent field to a1's plus ae where that is
	// a normal number's.
	VPSRLQ    $52, Y4, Y6
	VPADDQ    Y5, Y6, Y6
	VPCMPGTQ  Y6, Y11, Y6                  // below 1: subnormal or zero
	VPOR      Y6, Y13, Y13
	VMOVMSKPD Y13, BX
	TESTL     BX, BX
	JNZ       done
	VPSLLQ    $52, Y5, Y5
	VPADDQ    Y5, Y4, Y4
	VMOVUPD   one<>(SB), Y6
	VSUBPD    Y4, Y6, Y6                   // 1 − Pow
	VMOVUPD   Y6, (DI)
	ADDQ      $32, DI
	ADDQ      $4, AX
	DECQ      CX
	JNZ       quad

done:
	VZEROUPPER
	MOVQ AX, done+48(FP)
	RET
