#include "textflag.h"

// The social-Hausdorff head's assembly bodies (head.go has the reference
// bodies). Every operation is the reference body's, in its order and with
// its operand order: a product is VMULPD/VMULSD and a sum VADDPD/VADDSD,
// never fused, and where the compiled reference body puts an operand first
// (x86 returns the first operand's NaN when both are NaN) so does the
// assembly. Comparisons are ordered (_OQ), so NaN compares false as in Go.

// CHAIN is one rank chunk of headChainRuleAVX2 at byte offset AX of the
// rank: four elements in Y registers, two in X registers or one in the low
// lane (BC broadcasts one value, LD/ST move a chunk, MUL/ADD are the packed
// or scalar forms). G accumulates C[j][k]·u3[k] over the R11/8 compacted
// slots in ascending k; each slot also adds C[j][k]·u2[j] to hk[k]; then
// du2[j] and q take (h·u1)·G and u2[j]·G. Registers on entry: R8 u2[j],
// R9 du2[j], R12 the slots' coefficients, R13 their byte offsets k·8r,
// R11 8 × the slot count. It stands before the first TEXT because it reads
// headChainRuleAVX2's arguments by name, and vet checks such names against
// the TEXT a line follows.
#define CHAIN(BC, LD, ST, MUL, ADD, G, U2, C, T1, T2, INNER, DONE) \
	LD (R8)(AX*1), U2             \
	VXORPD G, G, G                \
	MOVQ u3+48(FP), SI            \
	ADDQ AX, SI                   \
	MOVQ hk+8(FP), BX             \
	ADDQ AX, BX                   \
	XORQ CX, CX                   \
	CMPQ CX, R11                  \
	JGE DONE                      \
INNER:                                \
	MOVQ (R13)(CX*1), R10         \
	BC (R12)(CX*1), C             \
	LD (SI)(R10*1), T1            \
	MUL C, T1, T1                 \
	ADD G, T1, G                  \
	MUL C, U2, T2                 \
	ADD (BX)(R10*1), T2, T2       \
	ST T2, (BX)(R10*1)            \
	ADDQ $8, CX                   \
	CMPQ CX, R11                  \
	JLT INNER                     \
DONE:                                 \
	MOVQ h+56(FP), R10            \
	LD (R10)(AX*1), T1            \
	MOVQ u1+64(FP), R10           \
	MUL (R10)(AX*1), T1, T1       \
	MUL G, T1, T1                 \
	ADD (R9)(AX*1), T1, T1        \
	ST T1, (R9)(AX*1)             \
	MUL G, U2, T2                 \
	MOVQ q+16(FP), R10            \
	ADD (R10)(AX*1), T2, T2       \
	ST T2, (R10)(AX*1)

// func visitProbsAVX2(p, dpdx, xhat, scratch *float64, K, groups int, hi float64)
//
// Four POIs per group, one per lane. The forward pass over ascending k
// gathers x̂_jk of the four rows into Y0, clamps it with VMAXPD/VMINPD (their
// second source is returned on NaN, so NaN passes through as in Clamp01),
// and keeps om = 1 − clamp, the prefix product and the saturation mask in
// scratch: om[k] at (R11), mask[k] at (R11)(R12*1), prefix[k] at
// (R11)(R12*2), R12 = 32·K. The backward pass over descending k clears the
// saturated lanes with VANDNPD (+0, as the reference stores) and scatters
// the four ∂p/∂x̂ back to their rows.
TEXT ·visitProbsAVX2(SB), NOSPLIT, $0-56
	MOVQ p+0(FP), DI
	MOVQ dpdx+8(FP), BX
	MOVQ xhat+16(FP), SI
	MOVQ scratch+24(FP), R11
	MOVQ K+32(FP), CX
	MOVQ groups+40(FP), DX
	VBROADCASTSD hi+48(FP), Y13
	MOVQ $0x3ff0000000000000, AX
	MOVQ AX, X14
	VBROADCASTSD X14, Y14         // 1
	VXORPD Y12, Y12, Y12          // +0
	MOVQ CX, R8
	SHLQ $3, R8                   // row stride
	LEAQ (R8)(R8*1), R9
	LEAQ (R9)(R8*1), R10
	MOVQ CX, R12
	SHLQ $5, R12

vpGroup:
	VMOVAPD Y14, Y15              // prefix[0] = 1
	VMOVUPD Y14, (R11)(R12*2)
	MOVQ CX, AX

vpForward:
	VMOVSD (SI), X0
	VMOVHPD (SI)(R8*1), X0, X0
	VMOVSD (SI)(R9*1), X1
	VMOVHPD (SI)(R10*1), X1, X1
	VINSERTF128 $1, X1, Y0, Y0
	VMAXPD Y0, Y12, Y1            // (0 > x) ? 0 : x
	VMINPD Y1, Y13, Y1            // (hi < c) ? hi : c
	VSUBPD Y1, Y14, Y1            // om = 1 − clamp
	VMOVUPD Y1, (R11)
	VMULPD Y15, Y1, Y15           // prefix[k+1] = om·prefix[k]
	VMOVUPD Y15, 32(R11)(R12*2)
	VCMPPD $0x12, Y12, Y0, Y2     // x ≤ 0
	VCMPPD $0x1d, Y13, Y0, Y3     // x ≥ hi
	VORPD Y3, Y2, Y2
	VMOVUPD Y2, (R11)(R12*1)
	ADDQ $8, SI
	ADDQ $8, BX
	ADDQ $32, R11
	DECQ AX
	JNZ vpForward

	VSUBPD Y15, Y14, Y0           // p = 1 − prefix[K]
	VMOVUPD Y0, (DI)
	VMOVAPD Y14, Y11              // suf = 1
	MOVQ CX, AX

vpBackward:
	SUBQ $8, SI
	SUBQ $8, BX
	SUBQ $32, R11
	VMOVUPD (R11)(R12*2), Y0
	VMULPD Y11, Y0, Y0            // prefix[k]·suf
	VMOVUPD (R11)(R12*1), Y1
	VANDNPD Y0, Y1, Y0            // 0 where saturated
	VMOVSD X0, (BX)
	VMOVHPD X0, (BX)(R8*1)
	VEXTRACTF128 $1, Y0, X1
	VMOVSD X1, (BX)(R9*1)
	VMOVHPD X1, (BX)(R10*1)
	VMULPD (R11), Y11, Y11        // suf·om[k]
	DECQ AX
	JNZ vpBackward

	ADDQ $32, DI
	LEAQ (SI)(R8*4), SI
	LEAQ (BX)(R8*4), BX
	DECQ DX
	JNZ vpGroup
	VZEROUPPER
	RET

// TERM2(ROW, DN, INV, YD, YF, YM, YI) is one friend POI's step of
// harmonicSumsAVX2 over four POIs at byte offset AX, p in Y11: it stores dn
// and the masked reciprocal and leaves in YI the four terms of the running
// sum (floorTerm in the clamped lanes).
#define TERM2(ROW, DN, INV, YD, YF, YM, YI) \
	VMOVUPD (ROW)(AX*1), YD       \
	VMULPD Y15, YD, YD            \
	VSUBPD Y14, YD, YD            \
	VMOVUPD YD, (DN)(AX*1)        \
	VMULPD YD, Y11, YF            \
	VADDPD Y14, YF, YF            \
	VCMPPD $0x11, Y13, YF, YM     \
	VDIVPD YF, Y14, YI            \
	VANDNPD YI, YM, YD            \
	VMOVUPD YD, (INV)(AX*1)       \
	VBLENDVPD YM, Y12, YI, YI

// func harmonicSumsAVX2(p, rowA, rowB, dnA, dnB, invA, invB *float64, n int, scale, floor, floorTerm float64) (sA, sB float64)
//
// Two friend POIs per pass, so the two running sums' scalar adds (four per
// group each, in ascending j) overlap each other and the divides.
TEXT ·harmonicSumsAVX2(SB), NOSPLIT, $0-104
	MOVQ p+0(FP), DI
	MOVQ rowA+8(FP), SI
	MOVQ rowB+16(FP), DX
	MOVQ dnA+24(FP), R8
	MOVQ dnB+32(FP), R9
	MOVQ invA+40(FP), R10
	MOVQ invB+48(FP), R11
	MOVQ n+56(FP), CX
	SHLQ $3, CX
	VBROADCASTSD scale+64(FP), Y15
	VBROADCASTSD floor+72(FP), Y13
	VBROADCASTSD floorTerm+80(FP), Y12
	MOVQ $0x3ff0000000000000, AX
	MOVQ AX, X14
	VBROADCASTSD X14, Y14         // 1
	VXORPD X10, X10, X10          // sA
	VXORPD X9, X9, X9             // sB
	XORQ AX, AX

hsLoop:
	VMOVUPD (DI)(AX*1), Y11
	TERM2(SI, R8, R10, Y0, Y1, Y2, Y3)
	TERM2(DX, R9, R11, Y4, Y5, Y6, Y7)
	VADDSD X3, X10, X10
	VADDSD X7, X9, X9
	VPERMILPD $1, X3, X0
	VPERMILPD $1, X7, X4
	VADDSD X0, X10, X10
	VADDSD X4, X9, X9
	VEXTRACTF128 $1, Y3, X3
	VEXTRACTF128 $1, Y7, X7
	VADDSD X3, X10, X10
	VADDSD X7, X9, X9
	VPERMILPD $1, X3, X0
	VPERMILPD $1, X7, X4
	VADDSD X0, X10, X10
	VADDSD X4, X9, X9
	ADDQ $32, AX
	CMPQ AX, CX
	JLT hsLoop

	VZEROUPPER
	MOVSD X10, sA+88(FP)
	MOVSD X9, sB+96(FP)
	RET

// GRAD(DN, INV, W) adds w·inv·inv·dn, multiplied left to right, to the four
// dl values in Y0.
#define GRAD(DN, INV, W) \
	VMOVUPD (INV)(AX*1), Y1       \
	VMULPD Y1, W, Y2              \
	VMULPD Y1, Y2, Y2             \
	VMULPD (DN)(AX*1), Y2, Y2     \
	VADDPD Y2, Y0, Y0

// func harmonicGrad1AVX2(dl, dn, inv *float64, n int, w float64)
TEXT ·harmonicGrad1AVX2(SB), NOSPLIT, $0-40
	MOVQ dl+0(FP), DI
	MOVQ dn+8(FP), R8
	MOVQ inv+16(FP), R10
	MOVQ n+24(FP), CX
	SHLQ $3, CX
	VBROADCASTSD w+32(FP), Y14
	XORQ AX, AX

hg1Loop:
	VMOVUPD (DI)(AX*1), Y0
	GRAD(R8, R10, Y14)
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, CX
	JLT hg1Loop
	VZEROUPPER
	RET

// func harmonicGrad2AVX2(dl, dnA, invA, dnB, invB *float64, n int, wA, wB float64)
TEXT ·harmonicGrad2AVX2(SB), NOSPLIT, $0-64
	MOVQ dl+0(FP), DI
	MOVQ dnA+8(FP), R8
	MOVQ invA+16(FP), R10
	MOVQ dnB+24(FP), R9
	MOVQ invB+32(FP), R11
	MOVQ n+40(FP), CX
	SHLQ $3, CX
	VBROADCASTSD wA+48(FP), Y14
	VBROADCASTSD wB+56(FP), Y13
	XORQ AX, AX

hg2Loop:
	VMOVUPD (DI)(AX*1), Y0
	GRAD(R8, R10, Y14)
	GRAD(R9, R11, Y13)
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, CX
	JLT hg2Loop
	VZEROUPPER
	RET

// func headChainRuleAVX2(du2, hk, q, dLdp, dpdx, u2, u3, h, u1, cv *float64, ks *int, J, K, r int)
//
// Per POI j with dLdp[j] ≠ 0 (a NaN is ≠ 0): first compact the slots, storing
// C[j][k] = dpdx[j][k]·dLdp[j] and k·8r at the slot count and advancing the
// count only when C ≠ 0 (NaN included), without a branch; then run the rank
// in chunks of four, one of two and one of one, so every rank element sees
// the same slots in the same order as the reference body.
TEXT ·headChainRuleAVX2(SB), NOSPLIT, $32-112
	MOVQ K+96(FP), AX
	SHLQ $3, AX
	MOVQ AX, kbytes-8(SP)
	MOVQ r+104(FP), AX
	SHLQ $3, AX
	MOVQ AX, rbytes-16(SP)
	ANDQ $-32, AX
	MOVQ AX, ybytes-24(SP)
	MOVQ dLdp+24(FP), DI
	MOVQ J+88(FP), AX
	LEAQ (DI)(AX*8), AX
	MOVQ AX, dend-32(SP)
	MOVQ dpdx+32(FP), DX
	MOVQ u2+40(FP), R8
	MOVQ du2+0(FP), R9
	MOVQ cv+72(FP), R12
	MOVQ ks+80(FP), R13
	VXORPD X13, X13, X13

crJ:
	VMOVSD (DI), X14
	VUCOMISD X13, X14
	JNE crCompact
	JPS crCompact
	JMP crNext

crCompact:
	XORQ CX, CX
	XORQ R10, R10
	XORQ R11, R11

crSlot:
	VMOVSD (DX)(CX*1), X0
	VMULSD X14, X0, X0            // C = dp·d
	VMOVSD X0, (R12)(R11*1)
	MOVQ R10, (R13)(R11*1)
	LEAQ 8(R11), BX
	VUCOMISD X13, X0
	CMOVQNE BX, R11
	CMOVQPS BX, R11
	ADDQ rbytes-16(SP), R10
	ADDQ $8, CX
	CMPQ CX, kbytes-8(SP)
	JLT crSlot

	XORQ AX, AX
	CMPQ AX, ybytes-24(SP)
	JGE crPair

crQuad:
	CHAIN(VBROADCASTSD, VMOVUPD, VMOVUPD, VMULPD, VADDPD, Y4, Y5, Y6, Y7, Y8, crQuadSlot, crQuadDone)
	ADDQ $32, AX
	CMPQ AX, ybytes-24(SP)
	JLT crQuad

crPair:
	MOVQ rbytes-16(SP), BX
	SUBQ AX, BX
	CMPQ BX, $16
	JLT crOne
	CHAIN(VMOVDDUP, VMOVUPD, VMOVUPD, VMULPD, VADDPD, X4, X5, X6, X7, X8, crPairSlot, crPairDone)
	ADDQ $16, AX

crOne:
	CMPQ AX, rbytes-16(SP)
	JGE crNext
	CHAIN(VMOVSD, VMOVSD, VMOVSD, VMULSD, VADDSD, X4, X5, X6, X7, X8, crOneSlot, crOneDone)

crNext:
	ADDQ $8, DI
	ADDQ kbytes-8(SP), DX
	ADDQ rbytes-16(SP), R8
	ADDQ rbytes-16(SP), R9
	CMPQ DI, dend-32(SP)
	JLT crJ
	VZEROUPPER
	RET
