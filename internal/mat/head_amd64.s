//go:build amd64 && !purego

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

// SLAB2(OFF, SA, SB) adds the products A[t]·u3[k][t] and A[t]·u3[k+1][t]
// to slot k's accumulator SA and slot k+1's SB, for the t at byte offset
// AX + OFF of A (CX) and of the two slots' broadcasts (R13, BX); A is the
// first factor, as DotRows puts w first.
#define SLAB2(OFF, SA, SB) \
	VMOVUPD OFF(CX)(AX*1), Y8      \
	VMULPD OFF(R13)(AX*1), Y8, Y9  \
	VADDPD Y9, SA, SA              \
	VMULPD OFF(BX)(AX*1), Y8, Y10  \
	VADDPD Y10, SB, SB

// SUM(S0, S1, S2, S3) leaves DotRows' (s0+s1)+(s2+s3) in S0.
#define SUM(S0, S1, S2, S3) \
	VADDPD S1, S0, S0              \
	VADDPD S3, S2, S2              \
	VADDPD S2, S0, S0

// FORWARD(X, T1, T2, T3, OM, PRE) is the probability pass's forward step for
// the slot whose x̂ is in X: it clamps x̂ with VMAXPD/VMINPD (their second
// source is returned on NaN, so NaN passes through as in Clamp01), stores
// om = 1 − clamp at OM(R11), extends the prefix product in Y15 and stores it
// at PRE(R11)(R12*2), and stores the saturation mask at OM(R11)(R12*1).
#define FORWARD(X, T1, T2, T3, OM, PRE) \
	VMAXPD X, Y12, T1              \
	VMINPD T1, Y13, T1             \
	VSUBPD T1, Y14, T1             \
	VMOVUPD T1, OM(R11)            \
	VMULPD Y15, T1, Y15            \
	VMOVUPD Y15, PRE(R11)(R12*2)   \
	VCMPPD $0x12, Y12, X, T2       \
	VCMPPD $0x1d, Y13, X, T3       \
	VORPD T3, T2, T2               \
	VMOVUPD T2, OM(R11)(R12*1)

// func slabVisitProbsAVX2(p, dpdx, u2, w, u3, scratch *float64, K, r, groups int, hi float64)
//
// Four POIs per group, one per lane. scratch holds, in four-lane entries of
// 32 bytes: A[t] = u2[j][t]·w[t] of the group's four rows (r entries, from
// CX), every u3 element broadcast (K·r entries, from CX + 32r, walked by R13
// one slot at a time), and then the probability pass's om[k] at (R11),
// mask[k] at (R11)(R12*1) and prefix[k] at (R11)(R12*2), R12 = 32·K.
//
// Slot k's x̂ is DotRows' sum with the POIs in the lanes: s0…s3 over the
// groups of four t, the tail into s0, then (s0+s1)+(s2+s3), so it needs no
// horizontal sum. Two slots are summed per pass (Y0…Y3 and Y4…Y7), sharing
// each A[t] load and overlapping their add chains; an odd last slot is
// summed twice and kept once. Each x̂ goes straight into the forward step,
// in ascending k. The backward pass over descending k clears the saturated
// lanes with VANDNPD (+0, as the reference stores) and scatters the four
// ∂p/∂x̂ to their rows.
TEXT ·slabVisitProbsAVX2(SB), NOSPLIT, $24-80
	MOVQ p+0(FP), DI
	MOVQ dpdx+8(FP), AX
	MOVQ AX, drow-8(SP)
	MOVQ u2+16(FP), SI
	MOVQ groups+64(FP), AX
	MOVQ AX, left-16(SP)
	VBROADCASTSD hi+72(FP), Y13
	MOVQ $0x3ff0000000000000, AX
	VMOVQ AX, X14
	VBROADCASTSD X14, Y14         // 1
	VXORPD Y12, Y12, Y12          // +0

	// Broadcast every u3 element once per call.
	MOVQ u3+32(FP), BX
	MOVQ scratch+40(FP), CX
	MOVQ r+56(FP), AX
	SHLQ $5, AX
	ADDQ AX, CX
	MOVQ K+48(FP), DX
	IMULQ r+56(FP), DX

svBroadcast:
	VBROADCASTSD (BX), Y0
	VMOVUPD Y0, (CX)
	ADDQ $8, BX
	ADDQ $32, CX
	DECQ DX
	JNZ svBroadcast
	MOVQ CX, probs-24(SP)
	MOVQ K+48(FP), R12
	SHLQ $5, R12

svGroup:
	// A[t] for the group's four rows, gathered and scaled by w[t].
	MOVQ r+56(FP), R8
	SHLQ $3, R8                   // u2 row stride
	LEAQ (R8)(R8*1), R9
	LEAQ (R9)(R8*1), R10
	MOVQ w+24(FP), DX
	MOVQ scratch+40(FP), CX
	XORQ AX, AX

svScale:
	LEAQ (SI)(AX*1), BX
	VMOVSD (BX), X0
	VMOVHPD (BX)(R8*1), X0, X0
	VMOVSD (BX)(R9*1), X1
	VMOVHPD (BX)(R10*1), X1, X1
	VINSERTF128 $1, X1, Y0, Y0
	VBROADCASTSD (DX)(AX*1), Y1
	VMULPD Y1, Y0, Y0             // u2·w
	VMOVUPD Y0, (CX)(AX*4)
	ADDQ $8, AX
	CMPQ AX, R8
	JLT svScale

	LEAQ (R8*4), R9               // 32r: A's length in bytes
	MOVQ R9, R10
	ANDQ $-128, R10               // the groups of four t
	LEAQ (CX)(R9*1), R13          // slot 0's u3 broadcasts
	MOVQ probs-24(SP), R11
	VMOVAPD Y14, Y15              // prefix[0] = 1
	VMOVUPD Y14, (R11)(R12*2)
	MOVQ K+48(FP), DX

svPair:
	LEAQ (R13)(R9*1), BX          // slot k+1's u3 broadcasts
	CMPQ DX, $1
	JNE svPairSums
	// An odd last slot is summed twice, so that no load runs past the
	// broadcasts (what follows them in scratch can be shorter than a slot).
	MOVQ R13, BX

svPairSums:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ AX, AX
	CMPQ AX, R10
	JGE svPairTail

svPairStep:
	SLAB2(0, Y0, Y4)
	SLAB2(32, Y1, Y5)
	SLAB2(64, Y2, Y6)
	SLAB2(96, Y3, Y7)
	ADDQ $128, AX
	CMPQ AX, R10
	JLT svPairStep

svPairTail:
	CMPQ AX, R9
	JGE svPairSum
	SLAB2(0, Y0, Y4)
	ADDQ $32, AX
	JMP svPairTail

svPairSum:
	SUM(Y0, Y1, Y2, Y3)
	FORWARD(Y0, Y1, Y2, Y3, 0, 32)
	CMPQ DX, $1
	JEQ svBackwardStart
	SUM(Y4, Y5, Y6, Y7)
	FORWARD(Y4, Y5, Y6, Y7, 32, 64)
	LEAQ (BX)(R9*1), R13
	ADDQ $64, R11
	SUBQ $2, DX
	JNZ svPair

svBackwardStart:
	VSUBPD Y15, Y14, Y0           // p = 1 − prefix[K]
	VMOVUPD Y0, (DI)
	VMOVAPD Y14, Y11              // suf = 1
	MOVQ K+48(FP), R8
	SHLQ $3, R8                   // dpdx row stride
	LEAQ (R8)(R8*1), R9
	LEAQ (R9)(R8*1), R10
	MOVQ probs-24(SP), R11
	LEAQ (R11)(R12*1), R11        // one past om[K−1]
	MOVQ drow-8(SP), BX
	ADDQ R8, BX                   // one past row 0's last slot
	MOVQ K+48(FP), AX

svBackward:
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
	JNZ svBackward

	ADDQ $32, DI
	LEAQ (BX)(R8*4), BX           // the next group's rows
	MOVQ BX, drow-8(SP)
	MOVQ r+56(FP), AX
	SHLQ $5, AX
	ADDQ AX, SI
	DECQ left-16(SP)
	JNZ svGroup
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
