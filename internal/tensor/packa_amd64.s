//go:build amd64

#include "textflag.h"
#include "transpose8_amd64.h"

// func packATr8AVX2(dst, src *float32, stride, kb8 int, alpha float32)
//
// Transposes the 8-row × kb8-column row-major block at src (row stride in
// floats) into dst as kb8 consecutive 8-wide column vectors — the
// fmaMR-interleaved A-panel layout — multiplying every element by alpha.
// kb8 is a positive multiple of 8 (the Go wrapper guarantees it).
//
// The loads and the 8×8 transpose are transpose8_amd64.h's; alpha is folded in
// between them.
TEXT ·packATr8AVX2(SB), NOSPLIT, $0-36
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ stride+16(FP), DX
	SHLQ $2, DX                 // row stride in bytes
	MOVQ kb8+24(FP), CX
	SHRQ $3, CX                 // 8-column blocks
	VBROADCASTSS alpha+32(FP), Y15

	// Row-offset multiples for ROWS8: R10=3·DX, R11=5·DX, R13=7·DX.
	LEAQ (DX)(DX*2), R10
	LEAQ (DX)(DX*4), R11
	LEAQ (R10)(DX*4), R13

packloop:
	ROWS8(SI, DX, R10, R11, R13)
	VMULPS Y15, Y0, Y0
	VMULPS Y15, Y1, Y1
	VMULPS Y15, Y2, Y2
	VMULPS Y15, Y3, Y3
	VMULPS Y15, Y4, Y4
	VMULPS Y15, Y5, Y5
	VMULPS Y15, Y6, Y6
	VMULPS Y15, Y7, Y7
	TRANSPOSE8

	// Column p of the source block is the contiguous 8-vector at dst+32p.
	VMOVUPS Y9, (DI)
	VMOVUPS Y10, 32(DI)
	VMOVUPS Y11, 64(DI)
	VMOVUPS Y12, 96(DI)
	VMOVUPS Y13, 128(DI)
	VMOVUPS Y0, 160(DI)
	VMOVUPS Y1, 192(DI)
	VMOVUPS Y2, 224(DI)

	ADDQ $32, SI
	ADDQ $256, DI
	DECQ CX
	JNZ  packloop
	VZEROUPPER
	RET
