//go:build amd64

#include "textflag.h"
#include "go_asm.h"

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

// AVX-512 kernels: one call is one run of p.n positions in every channel
// row — the whole batch in the channel-major layout — sixteen lanes a block,
// the last block under the opmask of the positions that are left (BX, K1).
// Tables are periodic in the plane, so a block uses entry block mod period.

// Sets BX and K1 to the lanes of a block with CX positions to go.
#define LANES(full) \
	CMPQ  CX, $16; \
	JGE   full; \
	MOVL  $1, BX; \
	SHLL  CX, BX; \
	DECL  BX; \
	KMOVW BX, K1

// func im2colShiftZ(p *zLower)
//
// Column row (c, t) is channel row c shifted by shift[t] under
// mask[block][t]: one masked load and one store per 16 positions, padding
// lanes stored as zeros; the n mod 16 positions of a last partial block are
// moved under K1.
TEXT ·im2colShiftZ(SB), NOSPLIT, $0-8
	MOVQ  p+0(FP), AX
	MOVQ  zLower_taps(AX), R11
	SHLQ  $1, R11                 // one block's masks, bytes
	MOVQ  zLower_period(AX), R12
	IMULQ R11, R12                // a period's
	MOVQ  zLower_x(AX), R8        // channel row c
	MOVQ  zLower_col(AX), R13     // column row c·taps+t
	MOVQ  zLower_inC(AX), R14
	MOVQ  zLower_n(AX), CX
	ANDQ  $15, CX
	MOVL  $1, BX
	SHLL  CX, BX
	DECL  BX
	KMOVW BX, K1                  // the partial block's lanes; none if n mod 16 = 0
zi2cchan:
	XORQ  R15, R15                // tap
zi2ctap:
	MOVQ    zLower_shift(AX), DX
	MOVLQSX (DX)(R15*4), DX
	LEAQ    (R8)(DX*4), SI        // row + δ
	MOVQ    R13, DI
	MOVQ    zLower_mask(AX), R9
	LEAQ    (R9)(R15*2), R9       // mask[·][tap]
	XORQ    R10, R10              // block mod period, in mask bytes
	MOVQ    zLower_n(AX), CX
	SHRQ    $4, CX                // whole blocks
	JZ      zi2ctail
zi2cblk:
	KMOVW     (R9)(R10*1), K2
	VMOVUPS.Z (SI), K2, Z0
	VMOVUPS   Z0, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DI
	ADDQ      R11, R10
	CMPQ      R10, R12
	JLT       zi2csame
	XORQ      R10, R10
zi2csame:
	DECQ      CX
	JNZ       zi2cblk
zi2ctail:
	TESTL     BX, BX
	JZ        zi2cnext
	KMOVW     (R9)(R10*1), K2
	KANDW     K1, K2, K2
	VMOVUPS.Z (SI), K2, Z0
	VMOVUPS   Z0, K1, (DI)
zi2cnext:
	ADDQ      zLower_ld(AX), R13
	INCQ      R15
	CMPQ      R15, zLower_taps(AX)
	JLT       zi2ctap
	ADDQ      zLower_sc(AX), R8
	DECQ      R14
	JNZ       zi2cchan
	VZEROUPPER
	RET

// func col2imShiftZ(p *zLower)
//
// The gather adjoint: per 16 input positions an accumulator from +0 adds, in
// ascending tap order, column row (c, t) shifted back by shift[t] under
// mask[block][t]; the accumulator is VADDPS's first source. Overwrites dx.
TEXT ·col2imShiftZ(SB), NOSPLIT, $24-8
	MOVQ  p+0(FP), AX
	MOVQ  zLower_x(AX), CX
	MOVQ  CX, row-8(SP)           // channel row c of dx
	MOVQ  zLower_col(AX), CX
	MOVQ  CX, col-16(SP)          // column row c·taps
	MOVQ  zLower_inC(AX), CX
	MOVQ  CX, chans-24(SP)
	MOVQ  zLower_shift(AX), R9
	MOVQ  zLower_taps(AX), R12
	IMULQ zLower_period(AX), R12
	SHLQ  $1, R12
	ADDQ  zLower_mask(AX), R12    // the mask table's end
	MOVQ  zLower_ld(AX), R13
zc2ichan:
	MOVQ  row-8(SP), DI
	MOVQ  col-16(SP), SI          // tap 0's row at this block
	MOVQ  zLower_mask(AX), R10    // this block's masks
	MOVQ  zLower_n(AX), CX
	MOVL  $0xFFFF, BX
	KMOVW BX, K1
zc2iblk:
	LANES(zc2isum)
zc2isum:
	VPXORD Z1, Z1, Z1             // +0
	MOVQ   SI, DX
	XORQ   R15, R15               // tap
zc2itap:
	MOVLQSX   (R9)(R15*4), R11
	NEGQ      R11
	MOVWLZX   (R10)(R15*2), R8
	ANDL      BX, R8
	KMOVW     R8, K2
	VMOVUPS.Z (DX)(R11*4), K2, Z2 // row t at position p − δ
	VADDPS    Z2, Z1, Z1
	ADDQ      R13, DX
	INCQ      R15
	CMPQ      R15, zLower_taps(AX)
	JLT       zc2itap
	VMOVUPS   Z1, K1, (DI)
	ADDQ      $64, DI
	ADDQ      $64, SI
	LEAQ      (R10)(R15*2), R10
	CMPQ      R10, R12
	JLT       zc2isame
	MOVQ      zLower_mask(AX), R10
zc2isame:
	SUBQ      $16, CX
	JG        zc2iblk
	MOVQ      zLower_sc(AX), CX
	ADDQ      CX, row-8(SP)
	MOVQ      zLower_taps(AX), CX
	IMULQ     R13, CX
	ADDQ      CX, col-16(SP)
	DECQ      chans-24(SP)
	JNZ       zc2ichan
	VZEROUPPER
	RET

// func im2colGatherZ(p *zLower)
//
// Every geometry that is not same-grid: column row (c, t) gathers channel
// row c through idx[t][block] — a lane whose index is negative is padding
// and stores +0. SI is the input plane of the period's first sample.
TEXT ·im2colGatherZ(SB), NOSPLIT, $0-8
	MOVQ   p+0(FP), AX
	VPXORD Z3, Z3, Z3
	MOVQ   zLower_period(AX), R12
	SHLQ   $6, R12                // one tap's indices, bytes
	MOVQ   zLower_x(AX), R8       // channel row c
	MOVQ   zLower_col(AX), R13    // column row c·taps+t
	MOVQ   zLower_inC(AX), R14
zg2cchan:
	XORQ   R15, R15               // tap
	MOVQ   zLower_idx(AX), R9     // idx[tap]
zg2ctap:
	MOVQ   R8, SI
	MOVQ   R13, DI
	MOVQ   R9, R10                // idx[tap][block mod period]
	LEAQ   (R9)(R12*1), R11       // idx[tap+1]
	MOVQ   zLower_n(AX), CX
	MOVL   $0xFFFF, BX
	KMOVW  BX, K1
zg2cblk:
	LANES(zg2cmove)
zg2cmove:
	VMOVDQU32  (R10), Z1
	VPCMPD     $5, Z3, Z1, K2     // index ≥ 0
	KANDW      K1, K2, K2
	VPXORD     Z0, Z0, Z0
	VGATHERDPS (SI)(Z1*4), K2, Z0
	VMOVUPS    Z0, K1, (DI)
	ADDQ       $64, DI
	ADDQ       $64, R10
	CMPQ       R10, R11
	JLT        zg2csame
	MOVQ       R9, R10
	ADDQ       zLower_step(AX), SI
zg2csame:
	SUBQ       $16, CX
	JG         zg2cblk
	ADDQ       zLower_ld(AX), R13
	MOVQ       R11, R9
	INCQ       R15
	CMPQ       R15, zLower_taps(AX)
	JLT        zg2ctap
	ADDQ       zLower_sc(AX), R8
	DECQ       R14
	JNZ        zg2cchan
	VZEROUPPER
	RET

// func col2imGatherZ(p *zLower)
//
// Its adjoint: per 16 input positions an accumulator from +0 adds, in
// ascending tap order, the column element of row (c, t) that read the
// position — idx[block][t], negative where none did. The scatter it
// replaces adds the same terms in the same order (lowering.go). SI is tap
// 0's row at the period's first column. Overwrites dx.
TEXT ·col2imGatherZ(SB), NOSPLIT, $24-8
	MOVQ   p+0(FP), AX
	VPXORD Z3, Z3, Z3
	MOVQ   zLower_x(AX), CX
	MOVQ   CX, row-8(SP)          // channel row c of dx
	MOVQ   zLower_col(AX), CX
	MOVQ   CX, col-16(SP)         // column row c·taps
	MOVQ   zLower_inC(AX), CX
	MOVQ   CX, chans-24(SP)
	MOVQ   zLower_taps(AX), R12
	IMULQ  zLower_period(AX), R12
	SHLQ   $6, R12
	ADDQ   zLower_idx(AX), R12    // the index table's end
	MOVQ   zLower_ld(AX), R13
zc2gchan:
	MOVQ   row-8(SP), DI
	MOVQ   col-16(SP), SI
	MOVQ   zLower_idx(AX), R10    // idx[block mod period]
	MOVQ   zLower_n(AX), CX
	MOVL   $0xFFFF, BX
	KMOVW  BX, K1
zc2gblk:
	LANES(zc2gsum)
zc2gsum:
	VPXORD Z1, Z1, Z1             // +0
	MOVQ   SI, DX
	XORQ   R15, R15               // tap
zc2gtap:
	VMOVDQU32  (R10), Z4
	VPCMPD     $5, Z3, Z4, K2     // index ≥ 0
	KANDW      K1, K2, K2
	VPXORD     Z2, Z2, Z2
	VGATHERDPS (DX)(Z4*4), K2, Z2
	VADDPS     Z2, Z1, Z1
	ADDQ       R13, DX
	ADDQ       $64, R10
	INCQ       R15
	CMPQ       R15, zLower_taps(AX)
	JLT        zc2gtap
	VMOVUPS    Z1, K1, (DI)
	ADDQ       $64, DI
	CMPQ       R10, R12
	JLT        zc2gsame
	MOVQ       zLower_idx(AX), R10
	ADDQ       zLower_step(AX), SI
zc2gsame:
	SUBQ       $16, CX
	JG         zc2gblk
	MOVQ       zLower_sc(AX), CX
	ADDQ       CX, row-8(SP)
	MOVQ       zLower_taps(AX), CX
	IMULQ      R13, CX
	ADDQ       CX, col-16(SP)
	DECQ       chans-24(SP)
	JNZ        zc2gchan
	VZEROUPPER
	RET
