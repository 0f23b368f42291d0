//go:build amd64

#include "textflag.h"

// AVX2 plane-shift kernels for same-grid conv lowering; lowering.go has the
// tables' layout and the accumulation-order argument. Operand order of
// VMASKMOVPS in Go syntax: load is (mem), mask, dst; store is src, mask,
// (mem). A lane moves when its mask element's sign bit is set; a clear lane
// loads as +0, is not stored, and its address is never accessed — which is
// what lets a tap's shifted pointer start before the plane it reads.

// func im2colShiftAVX2(x, col *float32, shift, mask, tail *int32, inC, taps, blocks, rem, sc, ld int)
//
// For each channel c and tap t, column row c·taps+t gets plane c shifted by
// shift[t] under mask[t]: one masked load and one full store per 8
// positions, padding lanes stored as zeros. The last block's store is masked
// by tail when the plane is not a multiple of 8 (rem != 0), because the next
// sample's columns follow directly.
TEXT ·im2colShiftAVX2(SB), NOSPLIT, $0-88
	MOVQ    x+0(FP), SI        // plane c
	MOVQ    col+8(FP), DI      // column row c·taps+t, this sample's block
	MOVQ    shift+16(FP), R8
	MOVQ    tail+32(FP), AX
	VMOVDQU (AX), Y7           // tail store mask
	MOVQ    inC+40(FP), R10
	MOVQ    sc+72(FP), R12
	SHLQ    $2, R12            // plane stride, bytes
	MOVQ    ld+80(FP), R13
	SHLQ    $2, R13            // column row stride, bytes
	MOVQ    blocks+56(FP), R14
	CMPQ    rem+64(FP), $0
	JEQ     i2cchan
	DECQ    R14                // R14 = blocks stored whole
i2cchan:
	MOVQ    mask+24(FP), R9    // the masks repeat for every channel
	XORQ    R11, R11           // tap
i2ctap:
	MOVLQSX (R8)(R11*4), AX
	LEAQ    (SI)(AX*4), DX     // plane + δ
	MOVQ    DI, BX
	MOVQ    R14, CX
	TESTQ   CX, CX
	JZ      i2ctail
i2cblk:
	VMOVDQU    (R9), Y0
	VMASKMOVPS (DX), Y0, Y1
	VMOVUPS    Y1, (BX)
	ADDQ       $32, R9
	ADDQ       $32, DX
	ADDQ       $32, BX
	DECQ       CX
	JNZ        i2cblk
i2ctail:
	CMPQ       rem+64(FP), $0
	JEQ        i2cnext
	VMOVDQU    (R9), Y0
	VMASKMOVPS (DX), Y0, Y1
	VMASKMOVPS Y1, Y7, (BX)
	ADDQ       $32, R9
i2cnext:
	ADDQ    R13, DI
	INCQ    R11
	CMPQ    R11, taps+48(FP)
	JLT     i2ctap
	ADDQ    R12, SI
	DECQ    R10
	JNZ     i2cchan
	VZEROUPPER
	RET

// func col2imShiftAVX2(col, dx *float32, shift, mask, tail *int32, inC, taps, blocks, rem, sc, ld int)
//
// The gather adjoint: for each channel c and 8 input positions, start an
// accumulator at +0 and add, in ascending tap order, column row c·taps+t
// shifted back by shift[t] under the adjoint mask (block-major, so the table
// is read front to back). The accumulator is VADDPS's first source, as it
// is the destination of the scalar `img[i] += v`. Overwrites dx.
TEXT ·col2imShiftAVX2(SB), NOSPLIT, $0-88
	MOVQ    col+0(FP), SI      // column row c·taps, this sample's block
	MOVQ    dx+8(FP), R14      // plane c of dx
	MOVQ    shift+16(FP), R8
	MOVQ    tail+32(FP), AX
	VMOVDQU (AX), Y7           // tail store mask
	MOVQ    inC+40(FP), R10
	MOVQ    taps+48(FP), R11
	MOVQ    ld+80(FP), R13
	SHLQ    $2, R13            // column row stride, bytes
c2ichan:
	MOVQ    mask+24(FP), R9    // the masks repeat for every channel
	MOVQ    SI, R12            // tap-0 row at this block
	MOVQ    R14, DI
	MOVQ    blocks+56(FP), CX
c2iblk:
	VXORPS  Y1, Y1, Y1         // +0
	MOVQ    R12, DX
	XORQ    AX, AX             // tap
c2itap:
	MOVLQSX    (R8)(AX*4), BX
	NEGQ       BX
	VMOVDQU    (R9), Y0
	VMASKMOVPS (DX)(BX*4), Y0, Y2 // row t at position p − δ
	VADDPS     Y2, Y1, Y1
	ADDQ       $32, R9
	ADDQ       R13, DX
	INCQ       AX
	CMPQ       AX, R11
	JLT        c2itap
	CMPQ       CX, $1
	JNE        c2iwhole
	CMPQ       rem+64(FP), $0
	JEQ        c2iwhole
	VMASKMOVPS Y1, Y7, (DI)
	JMP        c2istored
c2iwhole:
	VMOVUPS Y1, (DI)
c2istored:
	ADDQ    $32, DI
	ADDQ    $32, R12
	DECQ    CX
	JNZ     c2iblk
	MOVQ    sc+72(FP), AX
	LEAQ    (R14)(AX*4), R14
	MOVQ    R11, AX
	IMULQ   R13, AX
	ADDQ    AX, SI
	DECQ    R10
	JNZ     c2ichan
	VZEROUPPER
	RET
