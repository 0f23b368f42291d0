// amd64 AVX-512F GEMM micro-kernel: the 8×16 output tile, one ZMM per C
// row — gemmTileZ, VMULPS then VADDPS (DESIGN.md §8).

#include "textflag.h"
#include "go_asm.h"

// The tile. Row r of a k step: Z_r += a[r][p]·B_p, the product
// rounded by VMULPS before VADDPS adds it — never FMA — with the A element an
// embedded broadcast at DI + r·ars (R14 = ars, R15 = 3·ars, R12 = 5·ars,
// R11 = 7·ars) and the accumulator VADDPS's first source, as it is the
// destination of the scalar `acc += a*b`. A lane is one C element and k
// ascends, so a lane's chain of roundings is the Go kernels' whatever the
// width of the register it sits in.
#define ROW0 VMULPS.BCST (DI), Z8, Z9;         VADDPS Z9, Z0, Z0
#define ROW1 VMULPS.BCST (DI)(R14*1), Z8, Z10; VADDPS Z10, Z1, Z1
#define ROW2 VMULPS.BCST (DI)(R14*2), Z8, Z11; VADDPS Z11, Z2, Z2
#define ROW3 VMULPS.BCST (DI)(R15*1), Z8, Z12; VADDPS Z12, Z3, Z3
#define ROW4 VMULPS.BCST (DI)(R14*4), Z8, Z13; VADDPS Z13, Z4, Z4
#define ROW5 VMULPS.BCST (DI)(R12*1), Z8, Z14; VADDPS Z14, Z5, Z5
#define ROW6 VMULPS.BCST (DI)(R15*2), Z8, Z15; VADDPS Z15, Z6, Z6
#define ROW7 VMULPS.BCST (DI)(R11*1), Z8, Z16; VADDPS Z16, Z7, Z7
#define ROWS1 ROW0
#define ROWS2 ROWS1; ROW1
#define ROWS3 ROWS2; ROW2
#define ROWS4 ROWS3; ROW3
#define ROWS5 ROWS4; ROW4
#define ROWS6 ROWS5; ROW5
#define ROWS7 ROWS6; ROW6
#define ROWS8 ROWS7; ROW7

// The same rows in YMM registers (AVX-512VL), for a block of at most eight
// columns: half the lanes of a ZMM step would compute on zeros, and 256-bit
// MUL and ADD have a third port to issue on (61 against 45 GFLOP/s on the
// stage-1 weight gradient, 72×256×8).
#define ROW0Y VMULPS.BCST (DI), Y8, Y9;         VADDPS Y9, Y0, Y0
#define ROW1Y VMULPS.BCST (DI)(R14*1), Y8, Y10; VADDPS Y10, Y1, Y1
#define ROW2Y VMULPS.BCST (DI)(R14*2), Y8, Y11; VADDPS Y11, Y2, Y2
#define ROW3Y VMULPS.BCST (DI)(R15*1), Y8, Y12; VADDPS Y12, Y3, Y3
#define ROW4Y VMULPS.BCST (DI)(R14*4), Y8, Y13; VADDPS Y13, Y4, Y4
#define ROW5Y VMULPS.BCST (DI)(R12*1), Y8, Y14; VADDPS Y14, Y5, Y5
#define ROW6Y VMULPS.BCST (DI)(R15*2), Y8, Y15; VADDPS Y15, Y6, Y6
#define ROW7Y VMULPS.BCST (DI)(R11*1), Y8, Y16; VADDPS Y16, Y7, Y7
#define ROWS1Y ROW0Y
#define ROWS2Y ROWS1Y; ROW1Y
#define ROWS3Y ROWS2Y; ROW2Y
#define ROWS4Y ROWS3Y; ROW3Y
#define ROWS5Y ROWS4Y; ROW4Y
#define ROWS6Y ROWS5Y; ROW5Y
#define ROWS7Y ROWS6Y; ROW6Y
#define ROWS8Y ROWS7Y; ROW7Y

// The k loop of a block with a given number of live rows: rows the band does
// not have are never addressed. B row p is SI under the column mask K1
// (masked-off lanes load +0 and touch no memory) into b, Z8 or Y8; eight
// accumulators are what keeps the sixteen MUL/ADD of a step off the add
// latency.
#define KLOOP(label, ROWS, b) \
label: \
	VMOVUPS.Z (SI), K1, b; \
	ADDQ      R13, SI; \
	ROWS; \
	ADDQ      BX, DI; \
	DECQ      CX; \
	JNZ       label; \
	JMP       zstore

// The k loop when B is a conv input read in place (zTile.taps > 0): step
// (plane, tap CX) loads plane SI shifted by shift[CX] under the tap's opmask
// for this block, mask[CX] at R9, ANDed with the column mask — the lane is
// the column matrix's padding zero, or an element no sample of this block
// has, exactly where the mask is clear. R10 counts planes.
#define CLOOP(label, ROWS) \
label: \
	MOVLQSX   (R8)(CX*4), AX; \
	MOVWLZX   (R9)(CX*2), DX; \
	ANDL      tail-72(SP), DX; \
	KMOVW     DX, K2; \
	VMOVUPS.Z (SI)(AX*4), K2, Z8; \
	ROWS; \
	ADDQ      BX, DI; \
	INCQ      CX; \
	CMPQ      CX, taps-80(SP); \
	JLT       label; \
	XORQ      CX, CX; \
	ADDQ      R13, SI; \
	DECQ      R10; \
	JNZ       label; \
	JMP       zstore

// Jump to the loop for AX = 1…8 live rows.
#define BYROWS(l1, l2, l3, l4, l5, l6, l7, l8) \
	CMPQ AX, $8; \
	JEQ  l8; \
	CMPQ AX, $2; \
	JLT  l1; \
	JEQ  l2; \
	CMPQ AX, $4; \
	JLT  l3; \
	JEQ  l4; \
	CMPQ AX, $6; \
	JLT  l5; \
	JEQ  l6; \
	JMP  l7

// One C row of a block at DI (R8 = ldc), CX rows to go: LOADC preloads an
// accumulator, ACCC turns it into C + alpha·acc, STOREC stores it — all
// under the column mask.
#define LOADC(z, done) \
	VMOVUPS.Z (DI), K1, z; \
	DECQ      CX; \
	JZ        done; \
	ADDQ      R8, DI
#define ACCC(z, done) \
	VMULPS    Z17, z, z; \
	VMOVUPS.Z (DI), K1, Z18; \
	VADDPS    z, Z18, z; \
	DECQ      CX; \
	JZ        done; \
	ADDQ      R8, DI
#define STOREC(z, done) \
	VMOVUPS z, K1, (DI); \
	DECQ    CX; \
	JZ      done; \
	ADDQ    R8, DI

// func gemmTileZ(t *zTile)
//
// m rows of C by n columns: bands of eight rows (the last one 1…8), blocks
// of sixteen columns. Each block is the full k loop over its accumulators,
// the last block under the opmask of the n mod 16 columns that exist, so
// there is no edge kernel — a masked lane is never loaded, never stored, and
// computes on zeros. Accumulators start from C (zPreload) or +0 (zZero,
// zAccAlpha) and end as C (or, zAccAlpha, as C + alpha·acc).
TEXT ·gemmTileZ(SB), NOSPLIT, $80-8
	MOVQ         t+0(FP), AX
	MOVQ         zTile_ars(AX), R14
	LEAQ         (R14)(R14*2), R15
	LEAQ         (R14)(R14*4), R12
	LEAQ         (R15)(R14*4), R11
	MOVQ         zTile_acs(AX), BX
	MOVQ         zTile_ldb(AX), R13
	MOVQ         zTile_m(AX), CX
	MOVQ         CX, mleft-8(SP)
	MOVQ         zTile_a(AX), CX
	MOVQ         CX, aband-16(SP)
	MOVQ         zTile_c(AX), CX
	MOVQ         CX, cband-24(SP)
	MOVQ         zTile_taps(AX), CX
	MOVQ         CX, taps-80(SP)
	VBROADCASTSS zTile_alpha(AX), Z17

zband:
	MOVQ  mleft-8(SP), CX
	MOVQ  $8, DX
	CMPQ  CX, DX
	CMOVQLT CX, DX
	MOVQ  DX, rows-32(SP)
	MOVQ  zTile_b(AX), CX
	MOVQ  CX, bblk-48(SP)
	MOVQ  cband-24(SP), CX
	MOVQ  CX, cblk-56(SP)
	MOVQ  zTile_n(AX), CX
	MOVQ  CX, nleft-40(SP)
	MOVQ  $0, mi-64(SP)

zblock:
	// K1: the block's columns, all sixteen or the n mod 16 that are left.
	MOVQ  nleft-40(SP), CX
	MOVL  $0xFFFF, SI
	CMPQ  CX, $16
	JGE   zmask
	MOVL  $1, SI
	SHLL  CX, SI
	DECL  SI
zmask:
	KMOVW SI, K1
	MOVL  SI, tail-72(SP)

	MOVQ zTile_ldc(AX), R8
	CMPQ zTile_mode(AX), $const_zPreload
	JNE  zzero
	MOVQ rows-32(SP), CX
	MOVQ cblk-56(SP), DI
	LOADC(Z0, zk)
	LOADC(Z1, zk)
	LOADC(Z2, zk)
	LOADC(Z3, zk)
	LOADC(Z4, zk)
	LOADC(Z5, zk)
	LOADC(Z6, zk)
	LOADC(Z7, zk)
zzero:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7

zk:
	MOVQ aband-16(SP), DI
	MOVQ bblk-48(SP), SI
	MOVQ zTile_kb(AX), CX
	CMPQ taps-80(SP), $0
	JNE  zconv
	MOVQ rows-32(SP), AX
	CMPQ nleft-40(SP), $8
	JLE  zky
	BYROWS(zk1, zk2, zk3, zk4, zk5, zk6, zk7, zk8)
	KLOOP(zk8, ROWS8, Z8)
	KLOOP(zk7, ROWS7, Z8)
	KLOOP(zk6, ROWS6, Z8)
	KLOOP(zk5, ROWS5, Z8)
	KLOOP(zk4, ROWS4, Z8)
	KLOOP(zk3, ROWS3, Z8)
	KLOOP(zk2, ROWS2, Z8)
	KLOOP(zk1, ROWS1, Z8)
zky:
	BYROWS(zy1, zy2, zy3, zy4, zy5, zy6, zy7, zy8)
	KLOOP(zy8, ROWS8Y, Y8)
	KLOOP(zy7, ROWS7Y, Y8)
	KLOOP(zy6, ROWS6Y, Y8)
	KLOOP(zy5, ROWS5Y, Y8)
	KLOOP(zy4, ROWS4Y, Y8)
	KLOOP(zy3, ROWS3Y, Y8)
	KLOOP(zy2, ROWS2Y, Y8)
	KLOOP(zy1, ROWS1Y, Y8)
zconv:
	MOVQ  CX, R10                   // kb counts planes
	XORQ  CX, CX
	MOVQ  zTile_shift(AX), R8
	MOVQ  mi-64(SP), R9             // this block's masks: mask[mi][·]
	IMULQ taps-80(SP), R9
	SHLQ  $1, R9
	ADDQ  zTile_mask(AX), R9
	MOVQ  rows-32(SP), AX
	BYROWS(zc1, zc2, zc3, zc4, zc5, zc6, zc7, zc8)
	CLOOP(zc8, ROWS8)
	CLOOP(zc7, ROWS7)
	CLOOP(zc6, ROWS6)
	CLOOP(zc5, ROWS5)
	CLOOP(zc4, ROWS4)
	CLOOP(zc3, ROWS3)
	CLOOP(zc2, ROWS2)
	CLOOP(zc1, ROWS1)

zstore:
	MOVQ t+0(FP), AX
	MOVQ zTile_ldc(AX), R8
	CMPQ zTile_mode(AX), $const_zAccAlpha
	JNE  zst
	MOVQ rows-32(SP), CX
	MOVQ cblk-56(SP), DI
	ACCC(Z0, zst)
	ACCC(Z1, zst)
	ACCC(Z2, zst)
	ACCC(Z3, zst)
	ACCC(Z4, zst)
	ACCC(Z5, zst)
	ACCC(Z6, zst)
	ACCC(Z7, zst)
zst:
	MOVQ rows-32(SP), CX
	MOVQ cblk-56(SP), DI
	STOREC(Z0, znext)
	STOREC(Z1, znext)
	STOREC(Z2, znext)
	STOREC(Z3, znext)
	STOREC(Z4, znext)
	STOREC(Z5, znext)
	STOREC(Z6, znext)
	STOREC(Z7, znext)
znext:
	ADDQ $64, bblk-48(SP)
	ADDQ $64, cblk-56(SP)
	MOVQ mi-64(SP), CX              // masks repeat every `period` blocks
	INCQ CX
	CMPQ CX, zTile_period(AX)
	JLT  zmi
	XORQ CX, CX
zmi:
	MOVQ CX, mi-64(SP)
	SUBQ $16, nleft-40(SP)
	JG   zblock

	LEAQ (R14*8), CX
	ADDQ CX, aband-16(SP)
	LEAQ (R8*8), CX
	ADDQ CX, cband-24(SP)
	SUBQ $8, mleft-8(SP)
	JG   zband
	VZEROUPPER
	RET
