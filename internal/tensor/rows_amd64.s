//go:build amd64

#include "textflag.h"
#include "transpose8_amd64.h"

// AVX2 channel-row kernels; rows.go states the lane-per-channel rule they
// keep. Go asm reverses Intel operand order: `VSUBPS Y14, Y0, Y0` is
// Y0 = Y0 − Y14, `VUNPCKLPS Y1, Y0, Y4` is Y4 = unpacklo(Y0, Y1).

// LOAD4x8 loads four consecutive floats from each of eight rows — P is row
// 0, P4 row 4, S the row stride and S3 three times it, in bytes — and
// transposes them in registers: on exit YA..YD hold positions 0..3 of the
// eight rows, row r in lane r (XA..XD name the same four registers' low
// halves; the assembler's macros cannot paste a name together). Rows 4..7 go
// into the high 128-bit lanes, so the 4×4 unpack/shuffle ladder transposes
// both halves at once. Clobbers Y4..Y7.
#define LOAD4x8(P, P4, S, S3, XA, XB, XC, XD, YA, YB, YC, YD) \
	VMOVUPS     (P), XA; \
	VMOVUPS     (P)(S*1), XB; \
	VMOVUPS     (P)(S*2), XC; \
	VMOVUPS     (P)(S3*1), XD; \
	VINSERTF128 $1, (P4), YA, YA; \
	VINSERTF128 $1, (P4)(S*1), YB, YB; \
	VINSERTF128 $1, (P4)(S*2), YC, YC; \
	VINSERTF128 $1, (P4)(S3*1), YD, YD; \
	VUNPCKLPS   YB, YA, Y4; \
	VUNPCKHPS   YB, YA, Y5; \
	VUNPCKLPS   YD, YC, Y6; \
	VUNPCKHPS   YD, YC, Y7; \
	VSHUFPS     $0x44, Y6, Y4, YA; \
	VSHUFPS     $0xEE, Y6, Y4, YB; \
	VSHUFPS     $0x44, Y7, Y5, YC; \
	VSHUFPS     $0xEE, Y7, Y5, YD

// LOAD4x8A and LOAD4x8B are the two register sets the kernels use: Y0..Y3
// and, for a second operand, Y8..Y11.
#define LOAD4x8A(P, P4, S, S3) LOAD4x8(P, P4, S, S3, X0, X1, X2, X3, Y0, Y1, Y2, Y3)
#define LOAD4x8B(P, P4, S, S3) LOAD4x8(P, P4, S, S3, X8, X9, X10, X11, Y8, Y9, Y10, Y11)

// SUM64 adds one position of the eight channels, widened, to the two float64
// accumulators: Y12 (channels 0..3) += float64(low half), Y13 (4..7) +=
// float64(high half).
#define SUM64(XP, YP) \
	VCVTPS2PD    XP, Y8; \
	VEXTRACTF128 $1, YP, X9; \
	VCVTPS2PD    X9, Y9; \
	VADDPD       Y8, Y12, Y12; \
	VADDPD       Y9, Y13, Y13

// func rowSums64AVX2(sum *float64, x *float32, ld, blocks int)
// sum[c] += Σ float64(x[c·ld+i]) over 4·blocks positions, c = 0..7.
TEXT ·rowSums64AVX2(SB), NOSPLIT, $0-32
	MOVQ    sum+0(FP), DI
	MOVQ    x+8(FP), SI
	MOVQ    ld+16(FP), DX
	SHLQ    $2, DX
	MOVQ    blocks+24(FP), CX
	LEAQ    (DX)(DX*2), R8
	LEAQ    (SI)(DX*4), R9
	VMOVUPD (DI), Y12
	VMOVUPD 32(DI), Y13
rsumloop:
	LOAD4x8A(SI, R9, DX, R8)
	SUM64(X0, Y0)
	SUM64(X1, Y1)
	SUM64(X2, Y2)
	SUM64(X3, Y3)
	ADDQ    $16, SI
	ADDQ    $16, R9
	DECQ    CX
	JNZ     rsumloop
	VMOVUPD Y12, (DI)
	VMOVUPD Y13, 32(DI)
	VZEROUPPER
	RET

// SQDEV64 is one position of the variance sum: d = x − mean in float32 (Y14
// holds the eight means), widened, squared, added.
#define SQDEV64(XP, YP) \
	VSUBPS       Y14, YP, YP; \
	VCVTPS2PD    XP, Y8; \
	VEXTRACTF128 $1, YP, X9; \
	VCVTPS2PD    X9, Y9; \
	VMULPD       Y8, Y8, Y8; \
	VMULPD       Y9, Y9, Y9; \
	VADDPD       Y8, Y12, Y12; \
	VADDPD       Y9, Y13, Y13

// func rowSqDevs64AVX2(sq *float64, x, mean *float32, ld, blocks int)
// sq[c] += Σ d·d, d = float64(x[c·ld+i] − mean[c]).
TEXT ·rowSqDevs64AVX2(SB), NOSPLIT, $0-40
	MOVQ    sq+0(FP), DI
	MOVQ    x+8(FP), SI
	MOVQ    mean+16(FP), AX
	MOVQ    ld+24(FP), DX
	SHLQ    $2, DX
	MOVQ    blocks+32(FP), CX
	LEAQ    (DX)(DX*2), R8
	LEAQ    (SI)(DX*4), R9
	VMOVUPS (AX), Y14
	VMOVUPD (DI), Y12
	VMOVUPD 32(DI), Y13
rsqloop:
	LOAD4x8A(SI, R9, DX, R8)
	SQDEV64(X0, Y0)
	SQDEV64(X1, Y1)
	SQDEV64(X2, Y2)
	SQDEV64(X3, Y3)
	ADDQ    $16, SI
	ADDQ    $16, R9
	DECQ    CX
	JNZ     rsqloop
	VMOVUPD Y12, (DI)
	VMOVUPD Y13, 32(DI)
	VZEROUPPER
	RET

// DOT64 is one position of the two backward sums: a widened into Y4/Y5 and
// added to Y12/Y13, b widened into Y6/Y7, the float64 products added to
// Y14/Y15.
#define DOT64(XA, YA, XB, YB) \
	VCVTPS2PD    XA, Y4; \
	VEXTRACTF128 $1, YA, X5; \
	VCVTPS2PD    X5, Y5; \
	VCVTPS2PD    XB, Y6; \
	VEXTRACTF128 $1, YB, X7; \
	VCVTPS2PD    X7, Y7; \
	VADDPD       Y4, Y12, Y12; \
	VADDPD       Y5, Y13, Y13; \
	VMULPD       Y6, Y4, Y6; \
	VMULPD       Y7, Y5, Y7; \
	VADDPD       Y6, Y14, Y14; \
	VADDPD       Y7, Y15, Y15

// func rowDots64AVX2(sa, sab *float64, a, b *float32, ld, blocks int)
// sa[c] += Σ float64(a), sab[c] += Σ float64(a)·float64(b).
TEXT ·rowDots64AVX2(SB), NOSPLIT, $0-48
	MOVQ    sa+0(FP), DI
	MOVQ    sab+8(FP), BX
	MOVQ    a+16(FP), SI
	MOVQ    b+24(FP), AX
	MOVQ    ld+32(FP), DX
	SHLQ    $2, DX
	MOVQ    blocks+40(FP), CX
	LEAQ    (DX)(DX*2), R8
	LEAQ    (SI)(DX*4), R9
	LEAQ    (AX)(DX*4), R10
	VMOVUPD (DI), Y12
	VMOVUPD 32(DI), Y13
	VMOVUPD (BX), Y14
	VMOVUPD 32(BX), Y15
rdotloop:
	LOAD4x8A(SI, R9, DX, R8)
	LOAD4x8B(AX, R10, DX, R8)
	DOT64(X0, Y0, X8, Y8)
	DOT64(X1, Y1, X9, Y9)
	DOT64(X2, Y2, X10, Y10)
	DOT64(X3, Y3, X11, Y11)
	ADDQ    $16, SI
	ADDQ    $16, R9
	ADDQ    $16, AX
	ADDQ    $16, R10
	DECQ    CX
	JNZ     rdotloop
	VMOVUPD Y12, (DI)
	VMOVUPD Y13, 32(DI)
	VMOVUPD Y14, (BX)
	VMOVUPD Y15, 32(BX)
	VZEROUPPER
	RET

// func rowSegSums32AVX2(acc, x *float32, ld, segs, blocks int)
// For each of segs consecutive runs of 4·blocks positions: a float32 sum
// from +0 (Y14), then acc[c] += it (Y15), c = 0..7.
TEXT ·rowSegSums32AVX2(SB), NOSPLIT, $0-40
	MOVQ    acc+0(FP), DI
	MOVQ    x+8(FP), SI
	MOVQ    ld+16(FP), DX
	SHLQ    $2, DX
	MOVQ    segs+24(FP), BX
	LEAQ    (DX)(DX*2), R8
	LEAQ    (SI)(DX*4), R9
	VMOVUPS (DI), Y15
rsegseg:
	VXORPS  Y14, Y14, Y14
	MOVQ    blocks+32(FP), CX
rsegblk:
	LOAD4x8A(SI, R9, DX, R8)
	VADDPS  Y0, Y14, Y14
	VADDPS  Y1, Y14, Y14
	VADDPS  Y2, Y14, Y14
	VADDPS  Y3, Y14, Y14
	ADDQ    $16, SI
	ADDQ    $16, R9
	DECQ    CX
	JNZ     rsegblk
	VADDPS  Y14, Y15, Y15
	DECQ    BX
	JNZ     rsegseg
	VMOVUPS Y15, (DI)
	VZEROUPPER
	RET

// func normRowAVX2(y, xhat, x *float32, n int, mean, invStd, gamma, beta float32)
// xhat = (x − mean)·invStd; y = gamma·xhat + beta. n is a positive multiple
// of 8.
TEXT ·normRowAVX2(SB), NOSPLIT, $0-48
	MOVQ         y+0(FP), DI
	MOVQ         xhat+8(FP), DX
	MOVQ         x+16(FP), SI
	MOVQ         n+24(FP), CX
	SHRQ         $3, CX
	VBROADCASTSS mean+32(FP), Y4
	VBROADCASTSS invStd+36(FP), Y5
	VBROADCASTSS gamma+40(FP), Y6
	VBROADCASTSS beta+44(FP), Y7
normloop:
	VMOVUPS (SI), Y0
	VSUBPS  Y4, Y0, Y0
	VMULPS  Y5, Y0, Y0
	VMOVUPS Y0, (DX)
	VMULPS  Y6, Y0, Y0
	VADDPS  Y7, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     normloop
	VZEROUPPER
	RET

// func normGradRowAVX2(dx, dy, xhat *float32, n int, k, mDy, mDyXhat float32)
// dx = k·((dy − mDy) − xhat·mDyXhat). n is a positive multiple of 8.
TEXT ·normGradRowAVX2(SB), NOSPLIT, $0-44
	MOVQ         dx+0(FP), DI
	MOVQ         dy+8(FP), SI
	MOVQ         xhat+16(FP), DX
	MOVQ         n+24(FP), CX
	SHRQ         $3, CX
	VBROADCASTSS k+32(FP), Y4
	VBROADCASTSS mDy+36(FP), Y5
	VBROADCASTSS mDyXhat+40(FP), Y6
ngradloop:
	VMOVUPS (SI), Y0
	VSUBPS  Y5, Y0, Y0
	VMOVUPS (DX), Y1
	VMULPS  Y6, Y1, Y1
	VSUBPS  Y1, Y0, Y0
	VMULPS  Y4, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     ngradloop
	VZEROUPPER
	RET

// func transpose8AVX2(dst, src *float32, dstStride, srcStride, blocks int, add bool)
//
// Transposes an 8-row strip of src, 8·blocks columns wide, 8×8 block by
// block (transpose8_amd64.h's ladder, shared with packATr8AVX2): source column c
// becomes the 8 contiguous floats at dst + c·dstStride, stored or — add —
// added to what is there (dst first, as in `dst[i] += v`). Strides are in
// floats.
TEXT ·transpose8AVX2(SB), NOSPLIT, $0-41
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ dstStride+16(FP), BX
	SHLQ $2, BX
	MOVQ srcStride+24(FP), DX
	SHLQ $2, DX
	MOVQ blocks+32(FP), CX
	LEAQ (DX)(DX*2), R10        // 3·src stride
	LEAQ (DX)(DX*4), R11        // 5·
	LEAQ (R10)(DX*4), R13       // 7·
	LEAQ (BX)(BX*2), R8         // 3·dst stride
	LEAQ (BX)(BX*4), R9         // 5·
	LEAQ (R8)(BX*4), R12        // 7·
trloop:
	ROWS8(SI, DX, R10, R11, R13)
	TRANSPOSE8

	CMPB add+40(FP), $0
	JEQ  trstore
	VMOVUPS (DI), Y3
	VADDPS  Y9, Y3, Y9
	VMOVUPS (DI)(BX*1), Y3
	VADDPS  Y10, Y3, Y10
	VMOVUPS (DI)(BX*2), Y3
	VADDPS  Y11, Y3, Y11
	VMOVUPS (DI)(R8*1), Y3
	VADDPS  Y12, Y3, Y12
	VMOVUPS (DI)(BX*4), Y3
	VADDPS  Y13, Y3, Y13
	VMOVUPS (DI)(R9*1), Y3
	VADDPS  Y0, Y3, Y0
	VMOVUPS (DI)(R8*2), Y3
	VADDPS  Y1, Y3, Y1
	VMOVUPS (DI)(R12*1), Y3
	VADDPS  Y2, Y3, Y2
trstore:
	VMOVUPS Y9, (DI)
	VMOVUPS Y10, (DI)(BX*1)
	VMOVUPS Y11, (DI)(BX*2)
	VMOVUPS Y12, (DI)(R8*1)
	VMOVUPS Y13, (DI)(BX*4)
	VMOVUPS Y0, (DI)(R9*1)
	VMOVUPS Y1, (DI)(R8*2)
	VMOVUPS Y2, (DI)(R12*1)

	ADDQ $32, SI
	LEAQ (DI)(BX*8), DI
	DECQ CX
	JNZ  trloop
	VZEROUPPER
	RET
