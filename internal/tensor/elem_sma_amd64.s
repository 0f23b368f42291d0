//go:build amd64

#include "textflag.h"

// AVX2 optimiser kernels (see elem_sma.go for the scalar definitions).
// Callers guarantee n is a positive multiple of 8, as in elem_amd64.s.
//
// Exactness rules, on top of that file's: only VMULPS/VADDPS/VSUBPS, one
// per scalar operation and in the scalar expression's association — no
// FMA, because the Go compiler emits none for float32 on amd64 and a fused
// multiply-add rounds once where the scalar code rounds twice; MXCSR is
// left alone (no FTZ/DAZ), so every product, sum and difference is the
// IEEE one, subnormal or not.
//
// The velocity snap (snapVel in elem_sma.go) is the one step that is not
// arithmetic: after v = mu*v - lr*g, a lane whose magnitude bits are below
// 0x00800000 (2^-126, the smallest normal) is set to +0. It is done on the
// integer side — VPAND with 0x7fffffff, VPCMPGTD against 0x00800000,
// VPANDN — so NaN and ±Inf lanes (magnitude bits >= 0x7f800000) pass
// through untouched and the test itself can never take a microcode assist
// on the subnormal it is there to remove. SNAP expects 0x7fffffff in Y11
// and 0x00800000 in Y12 (SNAPCONST builds both without touching memory)
// and clobbers Y5.
//
// Operand order (Go asm reverses Intel's): OP src2, src1, dst. When both
// sources are NaN the result carries src1's payload; the orders below put
// the loaded variable, not the broadcast constant, in src1, and otherwise
// follow what the compiler does for the scalar loops. The payload of an
// operation on two different NaNs is the one thing not pinned (the
// compiler may commute an add); which lanes are NaN is.
//
// AX is the running byte offset, CX the byte length.

#define SNAPCONST \
	VPCMPEQD Y12, Y12, Y12; \
	VPSRLD   $1, Y12, Y11; \
	VPSRLD   $31, Y12, Y12; \
	VPSLLD   $23, Y12, Y12

#define SNAP(v) \
	VPAND    Y11, v, Y5; \
	VPCMPGTD Y5, Y12, Y5; \
	VPANDN   v, Y5, v

// func smaCorrectStepAccAVX2(w, grad, v, z, acc *float32, n int, alpha, lr, mu float32)
TEXT ·smaCorrectStepAccAVX2(SB), NOSPLIT, $0-60
	MOVQ         w+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         v+16(FP), DX
	MOVQ         z+24(FP), R8
	MOVQ         acc+32(FP), R9
	MOVQ         n+40(FP), CX
	VBROADCASTSS alpha+48(FP), Y13
	VBROADCASTSS lr+52(FP), Y14
	VBROADCASTSS mu+56(FP), Y15
	SNAPCONST
	SHLQ         $2, CX
	XORQ         AX, AX
csaloop:
	VMOVUPS (DI)(AX*1), Y0     // w
	VMOVUPS (R8)(AX*1), Y1     // z
	VSUBPS  Y1, Y0, Y1         // w - z
	VMULPS  Y13, Y1, Y1        // c = alpha*(w - z)
	VMOVUPS (R9)(AX*1), Y2
	VADDPS  Y1, Y2, Y2         // acc += c
	VMOVUPS Y2, (R9)(AX*1)
	VMOVUPS (DX)(AX*1), Y3     // v
	VMOVUPS (SI)(AX*1), Y4     // g
	VMULPS  Y15, Y3, Y3        // mu*v
	VMULPS  Y14, Y4, Y4        // lr*g
	VSUBPS  Y4, Y3, Y3         // v = mu*v - lr*g
	SNAP(Y3)                   // v = +0 where |v| < 2^-126
	VMOVUPS Y3, (DX)(AX*1)
	VSUBPS  Y1, Y0, Y0         // w - c
	VADDPS  Y3, Y0, Y0         // w = (w - c) + v
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     csaloop
	VZEROUPPER
	RET

// func smaCorrectStepOutAVX2(w, grad, v, z, out *float32, n int, alpha, lr, mu float32)
TEXT ·smaCorrectStepOutAVX2(SB), NOSPLIT, $0-60
	MOVQ         w+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         v+16(FP), DX
	MOVQ         z+24(FP), R8
	MOVQ         out+32(FP), R9
	MOVQ         n+40(FP), CX
	VBROADCASTSS alpha+48(FP), Y13
	VBROADCASTSS lr+52(FP), Y14
	VBROADCASTSS mu+56(FP), Y15
	SNAPCONST
	SHLQ         $2, CX
	XORQ         AX, AX
csoloop:
	VMOVUPS (DI)(AX*1), Y0     // w
	VMOVUPS (R8)(AX*1), Y1     // z
	VSUBPS  Y1, Y0, Y1         // w - z
	VMULPS  Y13, Y1, Y1        // c = alpha*(w - z)
	VMOVUPS Y1, (R9)(AX*1)     // out = c
	VMOVUPS (DX)(AX*1), Y3     // v
	VMOVUPS (SI)(AX*1), Y4     // g
	VMULPS  Y15, Y3, Y3        // mu*v
	VMULPS  Y14, Y4, Y4        // lr*g
	VSUBPS  Y4, Y3, Y3         // v = mu*v - lr*g
	SNAP(Y3)                   // v = +0 where |v| < 2^-126
	VMOVUPS Y3, (DX)(AX*1)
	VSUBPS  Y1, Y0, Y0         // w - c
	VADDPS  Y3, Y0, Y0         // w = (w - c) + v
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     csoloop
	VZEROUPPER
	RET

// func smaLocalStepAVX2(w, grad, v *float32, n int, lr, mu float32)
TEXT ·smaLocalStepAVX2(SB), NOSPLIT, $0-40
	MOVQ         w+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         v+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSS lr+32(FP), Y14
	VBROADCASTSS mu+36(FP), Y15
	SNAPCONST
	SHLQ         $2, CX
	XORQ         AX, AX
lsloop:
	VMOVUPS (DX)(AX*1), Y3     // v
	VMOVUPS (SI)(AX*1), Y4     // g
	VMULPS  Y15, Y3, Y3        // mu*v
	VMULPS  Y14, Y4, Y4        // lr*g
	VSUBPS  Y4, Y3, Y3         // v = mu*v - lr*g
	SNAP(Y3)                   // v = +0 where |v| < 2^-126
	VMOVUPS Y3, (DX)(AX*1)
	VMOVUPS (DI)(AX*1), Y0
	VADDPS  Y3, Y0, Y0         // w += v
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     lsloop
	VZEROUPPER
	RET

// func smaFoldAVX2(z, zPrev, delta *float32, n int, mu float32)
TEXT ·smaFoldAVX2(SB), NOSPLIT, $0-36
	MOVQ         z+0(FP), DI
	MOVQ         zPrev+8(FP), SI
	MOVQ         delta+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSS mu+32(FP), Y15
	SHLQ         $2, CX
	XORQ         AX, AX
foldloop:
	VMOVUPS (DI)(AX*1), Y0     // zOld
	VMOVUPS (DX)(AX*1), Y1     // delta
	VMOVUPS (SI)(AX*1), Y2     // zPrev
	VADDPS  Y0, Y1, Y1         // zOld + delta
	VSUBPS  Y2, Y0, Y2         // zOld - zPrev
	VMULPS  Y15, Y2, Y2        // mu*(zOld - zPrev)
	VADDPS  Y1, Y2, Y1         // z = (zOld + delta) + mu*(zOld - zPrev)
	VMOVUPS Y1, (DI)(AX*1)
	VMOVUPS Y0, (SI)(AX*1)     // zPrev = zOld
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     foldloop
	VZEROUPPER
	RET

// func smaDistFoldAVX2(ref, z, zPrev, sum *float32, n int, alpha, parts, mu float32)
TEXT ·smaDistFoldAVX2(SB), NOSPLIT, $0-52
	MOVQ         ref+0(FP), R9
	MOVQ         z+8(FP), DI
	MOVQ         zPrev+16(FP), SI
	MOVQ         sum+24(FP), DX
	MOVQ         n+32(FP), CX
	VBROADCASTSS alpha+40(FP), Y13
	VBROADCASTSS parts+44(FP), Y14
	VBROADCASTSS mu+48(FP), Y15
	SHLQ         $2, CX
	XORQ         AX, AX
dfloop:
	VMOVUPS (DI)(AX*1), Y0     // zOld
	VMOVUPS (R9)(AX*1), Y1     // ref
	VSUBPS  Y0, Y1, Y2         // ref - zOld
	VMULPS  Y13, Y2, Y2        // alpha*(ref - zOld)
	VSUBPS  Y2, Y1, Y1         // ref -= alpha*(ref - zOld)
	VMOVUPS Y1, (R9)(AX*1)
	VMOVUPS (DX)(AX*1), Y3     // sum
	VMULPS  Y14, Y0, Y4        // parts*zOld
	VSUBPS  Y4, Y3, Y3         // sum - parts*zOld
	VMULPS  Y13, Y3, Y3        // alpha*(sum - parts*zOld)
	VADDPS  Y0, Y3, Y3         // zOld + alpha*(...)
	VMOVUPS (SI)(AX*1), Y5     // zPrev
	VSUBPS  Y5, Y0, Y5         // zOld - zPrev
	VMULPS  Y15, Y5, Y5        // mu*(zOld - zPrev)
	VADDPS  Y5, Y3, Y3         // z = (zOld + alpha*(...)) + mu*(zOld - zPrev)
	VMOVUPS Y3, (DI)(AX*1)
	VMOVUPS Y0, (SI)(AX*1)     // zPrev = zOld
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     dfloop
	VZEROUPPER
	RET
