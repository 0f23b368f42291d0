// amd64 AVX2 GEMM micro-kernels: the 4×8 output tile, one YMM per C row —
// the level of hosts without AVX-512 (gemm_avx512_amd64.s has
// the 8×16 tile).
//
// A packed ap is MR(4)-interleaved (4 floats per k step), a packed bp is
// NR(8)-interleaved (8 floats per k step). Each C element accumulates its
// products in ascending-k order in a single float32 lane, using VMULPS then
// VADDPS — never FMA — so the rounding sequence is identical to the scalar
// Go kernels and results are bit-identical across all paths.

#include "textflag.h"

// func gemmMicroAccAVX2(kb int, ap, bp, c *float32, ldc int, alpha float32)
// Accumulators start at zero; C += alpha * acc (GemmTB).
TEXT ·gemmMicroAccAVX2(SB), NOSPLIT, $0-44
	MOVQ kb+0(FP), CX
	MOVQ ap+8(FP), DI
	MOVQ bp+16(FP), SI
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R8
	SHLQ $2, R8
	LEAQ (DX)(R8*1), R9
	LEAQ (R9)(R8*1), R10
	LEAQ (R10)(R8*1), R11
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	TESTQ  CX, CX
	JZ     acc_avx_done

	MOVQ CX, R12
	SHRQ $1, R12
	JZ   acc_avx_tail

acc_avx_loop:
	VMOVUPS      (SI), Y4
	VBROADCASTSS (DI), Y5
	VMULPS       Y4, Y5, Y5
	VADDPS       Y5, Y0, Y0
	VBROADCASTSS 4(DI), Y6
	VMULPS       Y4, Y6, Y6
	VADDPS       Y6, Y1, Y1
	VBROADCASTSS 8(DI), Y7
	VMULPS       Y4, Y7, Y7
	VADDPS       Y7, Y2, Y2
	VBROADCASTSS 12(DI), Y8
	VMULPS       Y4, Y8, Y8
	VADDPS       Y8, Y3, Y3

	VMOVUPS      32(SI), Y9
	VBROADCASTSS 16(DI), Y10
	VMULPS       Y9, Y10, Y10
	VADDPS       Y10, Y0, Y0
	VBROADCASTSS 20(DI), Y11
	VMULPS       Y9, Y11, Y11
	VADDPS       Y11, Y1, Y1
	VBROADCASTSS 24(DI), Y12
	VMULPS       Y9, Y12, Y12
	VADDPS       Y12, Y2, Y2
	VBROADCASTSS 28(DI), Y13
	VMULPS       Y9, Y13, Y13
	VADDPS       Y13, Y3, Y3

	ADDQ $32, DI
	ADDQ $64, SI
	DECQ R12
	JNZ  acc_avx_loop

acc_avx_tail:
	ANDQ $1, CX
	JZ   acc_avx_done
	VMOVUPS      (SI), Y4
	VBROADCASTSS (DI), Y5
	VMULPS       Y4, Y5, Y5
	VADDPS       Y5, Y0, Y0
	VBROADCASTSS 4(DI), Y6
	VMULPS       Y4, Y6, Y6
	VADDPS       Y6, Y1, Y1
	VBROADCASTSS 8(DI), Y7
	VMULPS       Y4, Y7, Y7
	VADDPS       Y7, Y2, Y2
	VBROADCASTSS 12(DI), Y8
	VMULPS       Y4, Y8, Y8
	VADDPS       Y8, Y3, Y3

acc_avx_done:
	VBROADCASTSS alpha+40(FP), Y5
	VMULPS       Y5, Y0, Y0
	VMOVUPS      (DX), Y4
	VADDPS       Y4, Y0, Y0
	VMOVUPS      Y0, (DX)
	VMULPS       Y5, Y1, Y1
	VMOVUPS      (R9), Y4
	VADDPS       Y4, Y1, Y1
	VMOVUPS      Y1, (R9)
	VMULPS       Y5, Y2, Y2
	VMOVUPS      (R10), Y4
	VADDPS       Y4, Y2, Y2
	VMOVUPS      Y2, (R10)
	VMULPS       Y5, Y3, Y3
	VMOVUPS      (R11), Y4
	VADDPS       Y4, Y3, Y3
	VMOVUPS      Y3, (R11)
	VZEROUPPER
	RET

// func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func gemmMicroPreBSAVX2(kb int, ap, b *float32, ldb int, c *float32, ldc int)
// The tile's 8 columns are read from B rows at stride ldb elements — the
// matrix itself (direct-B) or a packed panel (ldb = 8). Accumulators preload
// from C; the result overwrites C.
TEXT ·gemmMicroPreBSAVX2(SB), NOSPLIT, $0-48
	MOVQ kb+0(FP), CX
	MOVQ ap+8(FP), DI
	MOVQ b+16(FP), SI
	MOVQ ldb+24(FP), R13
	SHLQ $2, R13
	MOVQ c+32(FP), DX
	MOVQ ldc+40(FP), R8
	SHLQ $2, R8
	LEAQ (DX)(R8*1), R9
	LEAQ (R9)(R8*1), R10
	LEAQ (R10)(R8*1), R11
	VMOVUPS (DX), Y0
	VMOVUPS (R9), Y1
	VMOVUPS (R10), Y2
	VMOVUPS (R11), Y3
	TESTQ   CX, CX
	JZ      pre_bs_avx_done

	MOVQ CX, R12
	SHRQ $1, R12
	JZ   pre_bs_avx_tail

pre_bs_avx_loop:
	VMOVUPS      (SI), Y4
	ADDQ         R13, SI
	VBROADCASTSS (DI), Y5
	VMULPS       Y4, Y5, Y5
	VADDPS       Y5, Y0, Y0
	VBROADCASTSS 4(DI), Y6
	VMULPS       Y4, Y6, Y6
	VADDPS       Y6, Y1, Y1
	VBROADCASTSS 8(DI), Y7
	VMULPS       Y4, Y7, Y7
	VADDPS       Y7, Y2, Y2
	VBROADCASTSS 12(DI), Y8
	VMULPS       Y4, Y8, Y8
	VADDPS       Y8, Y3, Y3

	VMOVUPS      (SI), Y9
	ADDQ         R13, SI
	VBROADCASTSS 16(DI), Y10
	VMULPS       Y9, Y10, Y10
	VADDPS       Y10, Y0, Y0
	VBROADCASTSS 20(DI), Y11
	VMULPS       Y9, Y11, Y11
	VADDPS       Y11, Y1, Y1
	VBROADCASTSS 24(DI), Y12
	VMULPS       Y9, Y12, Y12
	VADDPS       Y12, Y2, Y2
	VBROADCASTSS 28(DI), Y13
	VMULPS       Y9, Y13, Y13
	VADDPS       Y13, Y3, Y3

	ADDQ $32, DI
	DECQ R12
	JNZ  pre_bs_avx_loop

pre_bs_avx_tail:
	ANDQ $1, CX
	JZ   pre_bs_avx_done
	VMOVUPS      (SI), Y4
	VBROADCASTSS (DI), Y5
	VMULPS       Y4, Y5, Y5
	VADDPS       Y5, Y0, Y0
	VBROADCASTSS 4(DI), Y6
	VMULPS       Y4, Y6, Y6
	VADDPS       Y6, Y1, Y1
	VBROADCASTSS 8(DI), Y7
	VMULPS       Y4, Y7, Y7
	VADDPS       Y7, Y2, Y2
	VBROADCASTSS 12(DI), Y8
	VMULPS       Y4, Y8, Y8
	VADDPS       Y8, Y3, Y3

pre_bs_avx_done:
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, (R9)
	VMOVUPS Y2, (R10)
	VMOVUPS Y3, (R11)
	VZEROUPPER
	RET

// func gemmRowDirAVX2(kb int, a *float32, ars, acs int, b *float32, ldb int, c *float32, ldc, tiles int, zero bool)
// One row of `tiles` adjacent 4×8 tiles of the fully direct kernel in one
// call: the four A lanes are the same for every tile, B and C advance eight
// columns a tile. zero starts the accumulators at +0 instead of preloading
// them from C (the beta == 0 entry). Consecutive tiles are independent, so
// the short k loops of the conv input gradient (kb = OutC) overlap in the
// out-of-order window instead of paying a call and a drain each.
TEXT ·gemmRowDirAVX2(SB), NOSPLIT, $0-73
	MOVQ a+8(FP), AX
	MOVQ ars+16(FP), R14
	SHLQ $2, R14
	MOVQ acs+24(FP), BX
	SHLQ $2, BX
	LEAQ (R14)(R14*2), R15
	MOVQ b+32(FP), SI
	MOVQ ldb+40(FP), R13
	SHLQ $2, R13
	MOVQ c+48(FP), DX
	MOVQ ldc+56(FP), R8
	SHLQ $2, R8
	LEAQ (DX)(R8*1), R9
	LEAQ (R9)(R8*1), R10
	LEAQ (R10)(R8*1), R11
	MOVQ tiles+64(FP), R12

row_dir_tile:
	CMPB zero+72(FP), $0
	JNE  row_dir_zero
	VMOVUPS (DX), Y0
	VMOVUPS (R9), Y1
	VMOVUPS (R10), Y2
	VMOVUPS (R11), Y3
	JMP  row_dir_k
row_dir_zero:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
row_dir_k:
	MOVQ AX, DI
	MOVQ SI, R8
	MOVQ kb+0(FP), CX

row_dir_loop:
	VMOVUPS      (R8), Y4
	ADDQ         R13, R8
	VBROADCASTSS (DI), Y5
	VMULPS       Y4, Y5, Y5
	VADDPS       Y5, Y0, Y0
	VBROADCASTSS (DI)(R14*1), Y6
	VMULPS       Y4, Y6, Y6
	VADDPS       Y6, Y1, Y1
	VBROADCASTSS (DI)(R14*2), Y7
	VMULPS       Y4, Y7, Y7
	VADDPS       Y7, Y2, Y2
	VBROADCASTSS (DI)(R15*1), Y8
	VMULPS       Y4, Y8, Y8
	VADDPS       Y8, Y3, Y3
	ADDQ BX, DI
	DECQ CX
	JNZ  row_dir_loop

	VMOVUPS Y0, (DX)
	VMOVUPS Y1, (R9)
	VMOVUPS Y2, (R10)
	VMOVUPS Y3, (R11)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	DECQ R12
	JNZ  row_dir_tile
	VZEROUPPER
	RET
