//go:build amd64 && !purego

#include "textflag.h"

// func adamStepAVX2(params, grads, m, v *float64, n int, b1, ob1, b2, ob2, c1, c2, lr, eps, wd float64)
//
// Four parameters per register, each operation adamStepGo's in its order
// and with its left operand as the first source: products VMULPD, never
// fused into the following VADDPD; m/c1, v/c2 and the ratio VDIVPD; the
// square root VSQRTPD; wd·p is taken even at wd = 0, so an infinite
// parameter still turns NaN.
TEXT ·adamStepAVX2(SB), NOSPLIT, $0-112
	MOVQ params+0(FP), DI
	MOVQ grads+8(FP), SI
	MOVQ m+16(FP), DX
	MOVQ v+24(FP), R8
	MOVQ n+32(FP), CX
	SHLQ $3, CX
	VBROADCASTSD b1+40(FP), Y14
	VBROADCASTSD ob1+48(FP), Y13
	VBROADCASTSD b2+56(FP), Y12
	VBROADCASTSD ob2+64(FP), Y11
	VBROADCASTSD c1+72(FP), Y10
	VBROADCASTSD c2+80(FP), Y9
	VBROADCASTSD lr+88(FP), Y15
	VBROADCASTSD eps+96(FP), Y8
	VBROADCASTSD wd+104(FP), Y7
	XORQ AX, AX

adamLoop:
	VMOVUPD (SI)(AX*1), Y0         // g
	VMULPD (DX)(AX*1), Y14, Y1     // β1·m
	VMULPD Y0, Y13, Y2             // (1−β1)·g
	VADDPD Y2, Y1, Y1
	VMOVUPD Y1, (DX)(AX*1)
	VMULPD (R8)(AX*1), Y12, Y3     // β2·v
	VMULPD Y0, Y11, Y4             // ((1−β2)·g)·g
	VMULPD Y0, Y4, Y4
	VADDPD Y4, Y3, Y3
	VMOVUPD Y3, (R8)(AX*1)
	VDIVPD Y10, Y1, Y1             // m̂ = m/c1
	VDIVPD Y9, Y3, Y3              // v̂ = v/c2
	VSQRTPD Y3, Y3
	VADDPD Y8, Y3, Y3              // √v̂ + eps
	VDIVPD Y3, Y1, Y1              // m̂/(√v̂ + eps)
	VMOVUPD (DI)(AX*1), Y5         // p
	VMULPD Y5, Y7, Y6              // wd·p
	VADDPD Y6, Y1, Y1
	VMULPD Y1, Y15, Y1             // lr·(…)
	VSUBPD Y1, Y5, Y5              // p − lr·(…)
	VMOVUPD Y5, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, CX
	JLT adamLoop
	VZEROUPPER
	RET
