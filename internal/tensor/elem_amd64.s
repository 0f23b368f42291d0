//go:build amd64

#include "textflag.h"

// AVX2 elementwise kernels. Callers guarantee n is a positive multiple of
// 8 (the Go wrappers mask to len&^7 and skip zero-length calls), so each
// loop body handles exactly one 8-lane YMM vector with no tail here.
//
// Operand-order note (Go asm reverses Intel order): in VMAXPS/VCMPPS the
// FIRST Go operand is Intel's second source. MAXPS returns the second
// source when the first is NaN or on a ±0 tie, so keeping the zero
// register first makes relu(NaN) = relu(-0) = +0, matching the scalar
// `if v > 0` loops bit for bit. VCMPPS $0x1E is GT_OQ: ordered
// greater-than, NaN compares false — again matching `y > 0`.

// func accumAddAVX2(dst, src *float32, n int)
TEXT ·accumAddAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $3, CX
accloop:
	VMOVUPS (SI), Y0
	VMOVUPS (DI), Y1
	VADDPS  Y0, Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     accloop
	VZEROUPPER
	RET

// func addAVX2(dst, a, b *float32, n int)
TEXT ·addAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	SHRQ $3, CX
addloop:
	VMOVUPS (SI), Y0
	VMOVUPS (DX), Y1
	VADDPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     addloop
	VZEROUPPER
	RET

// func epiRowAVX2(row *float32, n int, bias, gamma, beta, mean, invStd float32, stages int)
// One output row of a GEMM epilogue, in place: v += bias (stages bit 0), v =
// gamma·((v − mean)·invStd) + beta (bit 1), v = max(v, 0) with NaN and −0 to
// +0 (bit 2) — the scalar loop's operations in its order.
TEXT ·epiRowAVX2(SB), NOSPLIT, $0-48
	MOVQ         row+0(FP), DI
	MOVQ         n+8(FP), CX
	SHRQ         $3, CX
	MOVQ         stages+40(FP), AX
	VBROADCASTSS bias+16(FP), Y1
	VBROADCASTSS gamma+20(FP), Y3
	VBROADCASTSS beta+24(FP), Y4
	VBROADCASTSS mean+28(FP), Y5
	VBROADCASTSS invStd+32(FP), Y6
	VXORPS       Y2, Y2, Y2
epiloop:
	VMOVUPS (DI), Y0
	TESTQ   $1, AX
	JZ      epibn
	VADDPS  Y1, Y0, Y0
epibn:
	TESTQ   $2, AX
	JZ      epirelu
	VSUBPS  Y5, Y0, Y0
	VMULPS  Y6, Y0, Y0
	VMULPS  Y3, Y0, Y0
	VADDPS  Y4, Y0, Y0
epirelu:
	TESTQ   $4, AX
	JZ      epistore
	VMAXPS  Y2, Y0, Y0
epistore:
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	DECQ    CX
	JNZ     epiloop
	VZEROUPPER
	RET

// func reluFwdAVX2(dst, src *float32, n int)
TEXT ·reluFwdAVX2(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVQ   n+16(FP), CX
	SHRQ   $3, CX
	VXORPS Y2, Y2, Y2
fwdloop:
	VMOVUPS (SI), Y0
	VMAXPS  Y2, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     fwdloop
	VZEROUPPER
	RET

// func reluBwdAVX2(dst, dy, y *float32, n int)
TEXT ·reluBwdAVX2(SB), NOSPLIT, $0-32
	MOVQ   dst+0(FP), DI
	MOVQ   dy+8(FP), SI
	MOVQ   y+16(FP), DX
	MOVQ   n+24(FP), CX
	SHRQ   $3, CX
	VXORPS Y2, Y2, Y2
bwdloop:
	VMOVUPS (DX), Y0           // y (forward output, doubles as the mask)
	VMOVUPS (SI), Y1           // dy
	VCMPPS  $0x1E, Y2, Y0, Y3  // mask = y > 0 (GT_OQ)
	VANDPS  Y3, Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     bwdloop
	VZEROUPPER
	RET

// func addReluAVX2(dst, a, b *float32, n int)
TEXT ·addReluAVX2(SB), NOSPLIT, $0-32
	MOVQ   dst+0(FP), DI
	MOVQ   a+8(FP), SI
	MOVQ   b+16(FP), DX
	MOVQ   n+24(FP), CX
	SHRQ   $3, CX
	VXORPS Y2, Y2, Y2
joinloop:
	VMOVUPS (SI), Y0
	VMOVUPS (DX), Y1
	VADDPS  Y1, Y0, Y0
	VMAXPS  Y2, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     joinloop
	VZEROUPPER
	RET
