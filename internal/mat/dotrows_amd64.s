//go:build amd64 && !purego

#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// The element loads of the three bodies. LOADV widens four consecutive
// elements at SRC into the four lanes of YD (XD is YD's low half, scratch
// for the int8 body); LOADS widens one element at SRC into XD's low lane.
// Every widening is exact.
#define LOADV_F64(SRC, XD, YD) VMOVUPD SRC, YD
#define LOADS_F64(SRC, XD) VMOVSD SRC, XD
#define LOADV_F32(SRC, XD, YD) VCVTPS2PD SRC, YD
#define LOADS_F32(SRC, XD) VCVTSS2SD SRC, XD, XD
#define LOADV_I8(SRC, XD, YD) VPMOVSXBD SRC, XD; VCVTDQ2PD XD, YD
#define LOADS_I8(SRC, XD) MOVBQSX SRC, R13; VCVTSI2SDQ R13, XD, XD

// DOTROWS is the body shared by the three element types; SCALE is the
// element size in bytes. Registers on entry: DI dst, SI w, DX row 0 of the
// first group, CX r, BX groups (> 0).
//
// Each group scores rows DX, R10, R11 and R12 into Y0…Y3. Lane l of Yk is
// row k's accumulator s_l, so a step over four elements is one multiply and
// one add per row, in dotRowsGo's order. A tail element is multiplied and
// added in the low lane alone (VMULSD/VADDSD) and blended back into lane 0,
// leaving s1…s3 untouched. The reduction pairs rows 0/1 and 2/3 with VHADDPD
// (s0+s1 and s2+s3 of two rows at once), lines the pair sums of all four rows
// up with two lane swaps, and adds them: (s0+s1)+(s2+s3) for each row,
// stored to dst with one write. No FMA anywhere.
#define DOTROWS(LOADV, LOADS, SCALE) \
	MOVQ CX, R8                        \
	IMULQ $SCALE, R8                   \
	MOVQ CX, R9                        \
	ANDQ $-4, R9                       \
group:                                 \
	LEAQ (DX)(R8*1), R10               \
	LEAQ (R10)(R8*1), R11              \
	LEAQ (R11)(R8*1), R12              \
	VXORPD Y0, Y0, Y0                  \
	VXORPD Y1, Y1, Y1                  \
	VXORPD Y2, Y2, Y2                  \
	VXORPD Y3, Y3, Y3                  \
	XORQ AX, AX                        \
	CMPQ AX, R9                        \
	JGE tail                           \
step:                                  \
	VMOVUPD (SI)(AX*8), Y4             \
	LOADV((DX)(AX*SCALE), X5, Y5)      \
	VMULPD Y5, Y4, Y5                  \
	VADDPD Y5, Y0, Y0                  \
	LOADV((R10)(AX*SCALE), X6, Y6)     \
	VMULPD Y6, Y4, Y6                  \
	VADDPD Y6, Y1, Y1                  \
	LOADV((R11)(AX*SCALE), X7, Y7)     \
	VMULPD Y7, Y4, Y7                  \
	VADDPD Y7, Y2, Y2                  \
	LOADV((R12)(AX*SCALE), X8, Y8)     \
	VMULPD Y8, Y4, Y8                  \
	VADDPD Y8, Y3, Y3                  \
	ADDQ $4, AX                        \
	CMPQ AX, R9                        \
	JLT step                           \
tail:                                  \
	CMPQ AX, CX                        \
	JGE reduce                         \
	VMOVSD (SI)(AX*8), X4              \
	LOADS((DX)(AX*SCALE), X5)          \
	VMULSD X5, X4, X5                  \
	VADDSD X5, X0, X9                  \
	VBLENDPD $1, Y9, Y0, Y0            \
	LOADS((R10)(AX*SCALE), X6)         \
	VMULSD X6, X4, X6                  \
	VADDSD X6, X1, X9                  \
	VBLENDPD $1, Y9, Y1, Y1            \
	LOADS((R11)(AX*SCALE), X7)         \
	VMULSD X7, X4, X7                  \
	VADDSD X7, X2, X9                  \
	VBLENDPD $1, Y9, Y2, Y2            \
	LOADS((R12)(AX*SCALE), X8)         \
	VMULSD X8, X4, X8                  \
	VADDSD X8, X3, X9                  \
	VBLENDPD $1, Y9, Y3, Y3            \
	INCQ AX                            \
	JMP tail                           \
reduce:                                \
	VHADDPD Y1, Y0, Y0                 \
	VHADDPD Y3, Y2, Y2                 \
	VPERM2F128 $0x20, Y2, Y0, Y4       \
	VPERM2F128 $0x31, Y2, Y0, Y5       \
	VADDPD Y5, Y4, Y4                  \
	VMOVUPD Y4, (DI)                   \
	ADDQ $32, DI                       \
	LEAQ (R12)(R8*1), DX               \
	DECQ BX                            \
	JNZ group                          \
	VZEROUPPER                         \
	RET

// func dotRowsF64(dst, w *float64, rows *float64, r, groups int)
TEXT ·dotRowsF64(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ rows+16(FP), DX
	MOVQ r+24(FP), CX
	MOVQ groups+32(FP), BX
	DOTROWS(LOADV_F64, LOADS_F64, 8)

// func dotRowsF32(dst, w *float64, rows *float32, r, groups int)
TEXT ·dotRowsF32(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ rows+16(FP), DX
	MOVQ r+24(FP), CX
	MOVQ groups+32(FP), BX
	DOTROWS(LOADV_F32, LOADS_F32, 4)

// func dotRowsI8(dst, w *float64, rows *int8, r, groups int)
TEXT ·dotRowsI8(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ rows+16(FP), DX
	MOVQ r+24(FP), CX
	MOVQ groups+32(FP), BX
	DOTROWS(LOADV_I8, LOADS_I8, 1)
