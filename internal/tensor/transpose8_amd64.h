// The 8×8 float32 transpose shared by packATr8AVX2 (packa_amd64.s) and
// transpose8AVX2 (rows_amd64.s). Go asm reverses Intel operand order:
// `VUNPCKLPS Y1, Y0, Y8` is Intel vunpcklps y8, y0, y1, i.e.
// t0 = unpacklo(r0, r1).

// ROWS8 loads eight floats from each of eight rows into Y0..Y7: P is row 0,
// S the row stride in bytes and S3, S5, S7 three, five and seven times it
// (2·, 4· and 6· come from the addressing modes).
#define ROWS8(P, S, S3, S5, S7) \
	VMOVUPS (P), Y0; \
	VMOVUPS (P)(S*1), Y1; \
	VMOVUPS (P)(S*2), Y2; \
	VMOVUPS (P)(S3*1), Y3; \
	VMOVUPS (P)(S*4), Y4; \
	VMOVUPS (P)(S5*1), Y5; \
	VMOVUPS (P)(S3*2), Y6; \
	VMOVUPS (P)(S7*1), Y7

// TRANSPOSE8 transposes the block in Y0..Y7 (row r in Yr) with the classic
// unpack/shuffle/permute ladder: a 32-bit interleave of row pairs, 64-bit
// shuffles pairing the interleaves, 128-bit lane swaps. Columns 0..7 land,
// in order, in Y9 Y10 Y11 Y12 Y13 Y0 Y1 Y2; Y3..Y8 and Y14 are clobbered,
// Y15 is not touched.
#define TRANSPOSE8 \
	VUNPCKLPS  Y1, Y0, Y8; \
	VUNPCKHPS  Y1, Y0, Y9; \
	VUNPCKLPS  Y3, Y2, Y10; \
	VUNPCKHPS  Y3, Y2, Y11; \
	VUNPCKLPS  Y5, Y4, Y12; \
	VUNPCKHPS  Y5, Y4, Y13; \
	VUNPCKLPS  Y7, Y6, Y14; \
	VUNPCKHPS  Y7, Y6, Y2; \
	VSHUFPS    $0x44, Y10, Y8, Y0; \
	VSHUFPS    $0xEE, Y10, Y8, Y1; \
	VSHUFPS    $0x44, Y11, Y9, Y3; \
	VSHUFPS    $0xEE, Y11, Y9, Y4; \
	VSHUFPS    $0x44, Y14, Y12, Y5; \
	VSHUFPS    $0xEE, Y14, Y12, Y6; \
	VSHUFPS    $0x44, Y2, Y13, Y7; \
	VSHUFPS    $0xEE, Y2, Y13, Y8; \
	VPERM2F128 $0x20, Y5, Y0, Y9; \
	VPERM2F128 $0x20, Y6, Y1, Y10; \
	VPERM2F128 $0x20, Y7, Y3, Y11; \
	VPERM2F128 $0x20, Y8, Y4, Y12; \
	VPERM2F128 $0x31, Y5, Y0, Y13; \
	VPERM2F128 $0x31, Y6, Y1, Y0; \
	VPERM2F128 $0x31, Y7, Y3, Y1; \
	VPERM2F128 $0x31, Y8, Y4, Y2
