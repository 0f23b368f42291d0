//go:build amd64

#include "textflag.h"
#include "go_asm.h"

// 2×2/stride-2 max-pool kernels (pool.go has the rule, pool_amd64.go the
// argument block). A block is 8 windows in YMM or 16 in ZMM: two input rows
// of 16 or 32 columns in, one output row of 8 or 16 out. Every output row
// ends in a partial block moved under the lane masks of poolArgs, so a
// kernel reads and writes exactly the 2·ow columns the windows cover.
//
// Exactness: a kernel de-interleaves a window's four elements a b / c d
// into four vectors and runs the scalar chain — best = a, then b, c, d each
// replace it where VCMPPS $0x1E (GT_OQ: ordered, NaN compares false) says
// they are greater — with blends, which move bits; the index goes through
// the same blends.
//
// Common registers: R9 the input row in bytes, R10 the current input row,
// R11 the current input plane, R12 the address flat index 0 would have (so
// (address − R12)/4 is the index of any input element), R13 the input plane
// in bytes, R14 planes to go, R15 the last block's windows in bytes, DI and
// R8 the running out and arg pointers, SI the block's input columns, CX and
// DX block and row counters, BX scratch.

// Input-column offsets of element a in the lanes VSHUFPS leaves them in.
DATA poolColsA8<>+0(SB)/4, $0
DATA poolColsA8<>+4(SB)/4, $2
DATA poolColsA8<>+8(SB)/4, $8
DATA poolColsA8<>+12(SB)/4, $10
DATA poolColsA8<>+16(SB)/4, $4
DATA poolColsA8<>+20(SB)/4, $6
DATA poolColsA8<>+24(SB)/4, $12
DATA poolColsA8<>+28(SB)/4, $14
GLOBL poolColsA8<>(SB), RODATA|NOPTR, $32

// Lane numbers 0..15.
DATA poolIota<>+0(SB)/8, $0x0000000100000000
DATA poolIota<>+8(SB)/8, $0x0000000300000002
DATA poolIota<>+16(SB)/8, $0x0000000500000004
DATA poolIota<>+24(SB)/8, $0x0000000700000006
DATA poolIota<>+32(SB)/8, $0x0000000900000008
DATA poolIota<>+40(SB)/8, $0x0000000b0000000a
DATA poolIota<>+48(SB)/8, $0x0000000d0000000c
DATA poolIota<>+56(SB)/8, $0x0000000f0000000e
GLOBL poolIota<>(SB), RODATA|NOPTR, $64

// Loads the registers every kernel shares from the poolArgs at AX; lanes is
// the block's windows (8 or 16). Leaves w, in elements, in BX.
#define POOLSETUP(lanes) \
	MOVQ poolArgs_in(AX), R11; \
	MOVQ poolArgs_base(AX), R12; \
	SHLQ $2, R12; \
	NEGQ R12; \
	ADDQ R11, R12; \
	MOVQ poolArgs_out(AX), DI; \
	MOVQ poolArgs_arg(AX), R8; \
	MOVQ poolArgs_plane(AX), R13; \
	SHLQ $2, R13; \
	MOVQ poolArgs_planes(AX), R14; \
	MOVQ poolArgs_full(AX), CX; \
	IMULQ $lanes, CX; \
	MOVQ poolArgs_ow(AX), R15; \
	SUBQ CX, R15; \
	SHLQ $2, R15; \
	MOVQ poolArgs_w(AX), BX; \
	LEAQ (BX*4), R9

// Flat index of the input element at SI, in BX.
#define POOLINDEX \
	MOVQ SI, BX; \
	SUBQ R12, BX; \
	SHRQ $2, BX

// POOL8: rows 0 and 1 of a block in Y0:Y1 and Y2:Y3 (columns 0..7, 8..15);
// leaves the eight maxima in Y4 and their indices in Y8. Y10 is poolColsA8,
// Y11 ones, Y12 w.
#define POOL8 \
	VSHUFPS   $0x88, Y1, Y0, Y4; \
	VSHUFPS   $0xDD, Y1, Y0, Y5; \
	VSHUFPS   $0x88, Y3, Y2, Y6; \
	VSHUFPS   $0xDD, Y3, Y2, Y7; \
	POOLINDEX; \
	VMOVD     BX, X8; \
	VPBROADCASTD X8, Y8; \
	VPADDD    Y10, Y8, Y8; \
	VPADDD    Y11, Y8, Y9; \
	VPADDD    Y12, Y8, Y1; \
	VCMPPS    $0x1E, Y4, Y5, Y0; \
	VBLENDVPS Y0, Y5, Y4, Y4; \
	VBLENDVPS Y0, Y9, Y8, Y8; \
	VCMPPS    $0x1E, Y4, Y6, Y0; \
	VBLENDVPS Y0, Y6, Y4, Y4; \
	VBLENDVPS Y0, Y1, Y8, Y8; \
	VPADDD    Y11, Y1, Y1; \
	VCMPPS    $0x1E, Y4, Y7, Y0; \
	VBLENDVPS Y0, Y7, Y4, Y4; \
	VBLENDVPS Y0, Y1, Y8, Y8; \
	VPERMPD   $0xD8, Y4, Y4; \
	VPERMQ    $0xD8, Y8, Y8

// func maxPool2FwdAVX2(p *poolArgs)
TEXT ·maxPool2FwdAVX2(SB), NOSPLIT, $0-8
	MOVQ         p+0(FP), AX
	POOLSETUP(8)
	VMOVD        BX, X12
	VPBROADCASTD X12, Y12
	VMOVDQU      poolColsA8<>(SB), Y10
	VPCMPEQD     Y11, Y11, Y11
	VPSRLD       $31, Y11, Y11
	MOVQ         poolArgs_mLo(AX), CX
	VMOVDQU      (CX), Y13
	MOVQ         poolArgs_mHi(AX), CX
	VMOVDQU      (CX), Y14
	MOVQ         poolArgs_mOut(AX), CX
	VMOVDQU      (CX), Y15
fplane:
	MOVQ R11, R10
	MOVQ poolArgs_oh(AX), DX
frow:
	MOVQ  R10, SI
	MOVQ  poolArgs_full(AX), CX
	TESTQ CX, CX
	JZ    ftail
fblock:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS (SI)(R9*1), Y2
	VMOVUPS 32(SI)(R9*1), Y3
	POOL8
	VMOVUPS Y4, (DI)
	ADDQ    $32, DI
	TESTQ   R8, R8
	JZ      fnext
	VMOVDQU Y8, (R8)
	ADDQ    $32, R8
fnext:
	ADDQ $64, SI
	DECQ CX
	JNZ  fblock
ftail:
	VMASKMOVPS (SI), Y13, Y0
	VMASKMOVPS 32(SI), Y14, Y1
	VMASKMOVPS (SI)(R9*1), Y13, Y2
	VMASKMOVPS 32(SI)(R9*1), Y14, Y3
	POOL8
	VMASKMOVPS Y4, Y15, (DI)
	ADDQ       R15, DI
	TESTQ      R8, R8
	JZ         frownext
	VMASKMOVPS Y8, Y15, (R8)
	ADDQ       R15, R8
frownext:
	LEAQ (R10)(R9*2), R10
	DECQ DX
	JNZ  frow
	ADDQ R13, R11
	DECQ R14
	JNZ  fplane
	VZEROUPPER
	RET

// Loads the last block's opmasks into K1 (low columns), K2 (high columns)
// and K3 (windows), and all sixteen lanes into K5.
#define POOLMASKS \
	KMOVW poolArgs_kLo(AX), K1; \
	KMOVW poolArgs_kHi(AX), K2; \
	KMOVW poolArgs_kOut(AX), K3; \
	MOVL  $0xFFFF, CX; \
	KMOVW CX, K5

// POOL16 pools the block at SI under the column masks klo and khi and
// leaves the sixteen maxima in Z4 and their indices in Z6. Z28 and Z29 are
// the even and odd lane numbers 0..31 — VPERMT2PS pulls a (c) and b (d) out
// of a row's two halves with them — Z27 ones, Z26 w.
#define POOL16(klo, khi) \
	VMOVUPS.Z (SI), klo, Z0; \
	VMOVUPS.Z 64(SI), khi, Z1; \
	VMOVUPS.Z (SI)(R9*1), klo, Z2; \
	VMOVUPS.Z 64(SI)(R9*1), khi, Z3; \
	VMOVAPS   Z0, Z4; \
	VPERMT2PS Z1, Z28, Z4; \
	VPERMT2PS Z1, Z29, Z0; \
	VMOVAPS   Z2, Z5; \
	VPERMT2PS Z3, Z28, Z5; \
	VPERMT2PS Z3, Z29, Z2; \
	POOLINDEX; \
	VPBROADCASTD BX, Z6; \
	VPADDD    Z28, Z6, Z6; \
	VPADDD    Z26, Z6, Z7; \
	VCMPPS    $0x1E, Z4, Z0, K4; \
	VMOVAPS   Z0, K4, Z4; \
	VPADDD    Z27, Z6, K4, Z6; \
	VCMPPS    $0x1E, Z4, Z5, K4; \
	VMOVAPS   Z5, K4, Z4; \
	VMOVDQA32 Z7, K4, Z6; \
	VPADDD    Z27, Z7, Z7; \
	VCMPPS    $0x1E, Z4, Z2, K4; \
	VMOVAPS   Z2, K4, Z4; \
	VMOVDQA32 Z7, K4, Z6

// func maxPool2FwdZ(p *poolArgs)
TEXT ·maxPool2FwdZ(SB), NOSPLIT, $0-8
	MOVQ         p+0(FP), AX
	POOLSETUP(16)
	VPBROADCASTD BX, Z26
	VPTERNLOGD   $0xFF, Z27, Z27, Z27
	VPSRLD       $31, Z27, Z27
	VMOVDQU32    poolIota<>(SB), Z28
	VPADDD       Z28, Z28, Z28           // 0, 2, …, 30
	VPADDD       Z27, Z28, Z29           // 1, 3, …, 31
	POOLMASKS
zfplane:
	MOVQ R11, R10
	MOVQ poolArgs_oh(AX), DX
zfrow:
	MOVQ  R10, SI
	MOVQ  poolArgs_full(AX), CX
	TESTQ CX, CX
	JZ    zftail
zfblock:
	POOL16(K5, K5)
	VMOVUPS   Z4, (DI)
	ADDQ      $64, DI
	TESTQ     R8, R8
	JZ        zfnext
	VMOVDQU32 Z6, (R8)
	ADDQ      $64, R8
zfnext:
	ADDQ $128, SI
	DECQ CX
	JNZ  zfblock
zftail:
	POOL16(K1, K2)
	VMOVUPS   Z4, K3, (DI)
	ADDQ      R15, DI
	TESTQ     R8, R8
	JZ        zfrownext
	VMOVDQU32 Z6, K3, (R8)
	ADDQ      R15, R8
zfrownext:
	LEAQ (R10)(R9*2), R10
	DECQ DX
	JNZ  zfrow
	ADDQ R13, R11
	DECQ R14
	JNZ  zfplane
	VZEROUPPER
	RET
