//go:build amd64

#include "textflag.h"

// The polar method's factor √(−2·ln s / s), four s per step. ln s is
// math.Log's amd64 kernel (math/log_amd64.s, archLog) operation for
// operation, one lane per scalar: the same frexp split, the same f1 ≤ √2/2
// reduction (archLog compares with CMPSD's not-less-than, so f1 equal to
// √2/2's double is reduced, where the portable log does not), the same
// polynomial association, no FMA and MXCSR untouched — so each lane rounds
// exactly as the scalar call does (TestNormFactorsMatchMathLog). The only
// new step is k's conversion: the unbiased exponent, an int64 that is
// negative for every s < 1/2, is added to the bits of 1.5·2⁵² and the
// double 1.5·2⁵² subtracted again, which is exact for |k| < 2⁵¹. Special
// cases (zero, negative, Inf, NaN) are not handled: s is a polar radius,
// never any of them. Go asm reverses Intel operand order: `VSUBPD Y3, Y7,
// Y7` is Y7 = Y7 − Y3, `VCMPPD $2, M, Y2, Y3` is Y3 = (Y2 ≤ M).

// Each constant is four copies of one float64's bits, a YMM memory operand.
#define CONST4(off, bits) \
	DATA normC<>+(off+0)(SB)/8, $bits; \
	DATA normC<>+(off+8)(SB)/8, $bits; \
	DATA normC<>+(off+16)(SB)/8, $bits; \
	DATA normC<>+(off+24)(SB)/8, $bits

CONST4(0, 0x000FFFFFFFFFFFFF)   // mantissa mask
CONST4(32, 0x3FE0000000000000)  // 0.5
CONST4(64, 0x00000000000003FE)  // exponent bias − 1, as an int64
CONST4(96, 0x4338000000000000)  // 1.5·2⁵²
CONST4(128, 0x3FE6A09E667F3BCD) // √2/2
CONST4(160, 0x3FF0000000000000) // 1
CONST4(192, 0x4000000000000000) // 2
CONST4(224, 0x3FE5555555555593) // L1
CONST4(256, 0x3FD999999997FA04) // L2
CONST4(288, 0x3FD2492494229359) // L3
CONST4(320, 0x3FCC71C51D8E78AF) // L4
CONST4(352, 0x3FC7466496CB03DE) // L5
CONST4(384, 0x3FC39A09D078C69F) // L6
CONST4(416, 0x3FC2F112DF3E5244) // L7
CONST4(448, 0x3FE62E42FEE00000) // Ln2Hi
CONST4(480, 0x3DEA39EF35793C76) // Ln2Lo
CONST4(512, 0xC000000000000000) // −2
GLOBL normC<>(SB), RODATA|NOPTR, $544

// func normFactorsAVX2(s *float64, n int)
TEXT ·normFactorsAVX2(SB), NOSPLIT, $0-16
	MOVQ s+0(FP), SI
	MOVQ n+8(FP), CX
	SHRQ $2, CX

normloop:
	VMOVUPD (SI), Y0 // s

	// f1, k := frexp(s)
	VANDPD normC<>+0(SB), Y0, Y2
	VORPD  normC<>+32(SB), Y2, Y2 // f1
	VPSRLQ $52, Y0, Y1
	VPSUBQ normC<>+64(SB), Y1, Y1
	VPADDQ normC<>+96(SB), Y1, Y1
	VSUBPD normC<>+96(SB), Y1, Y1 // k

	// if f1 ≤ √2/2 { k -= 1; f1 *= 2 }, as archLog: by 0 or 1 and 1 or 2
	VCMPPD $2, normC<>+128(SB), Y2, Y3
	VANDPD normC<>+160(SB), Y3, Y3
	VSUBPD Y3, Y1, Y1
	VADDPD normC<>+160(SB), Y3, Y3
	VMULPD Y3, Y2, Y2

	// f := f1 − 1; s := f/(2+f); s2 := s·s; s4 := s2·s2
	VSUBPD normC<>+160(SB), Y2, Y2 // f
	VADDPD normC<>+192(SB), Y2, Y4
	VDIVPD Y4, Y2, Y3              // s
	VMULPD Y3, Y3, Y4              // s2
	VMULPD Y4, Y4, Y5              // s4

	// t1 := s2·(L1 + s4·(L3 + s4·(L5 + s4·L7)))
	VMULPD normC<>+416(SB), Y5, Y6
	VADDPD normC<>+352(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD normC<>+288(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD normC<>+224(SB), Y6, Y6
	VMULPD Y6, Y4, Y4 // t1

	// t2 := s4·(L2 + s4·(L4 + s4·L6)); R := t1 + t2
	VMULPD normC<>+384(SB), Y5, Y6
	VADDPD normC<>+320(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD normC<>+256(SB), Y6, Y6
	VMULPD Y6, Y5, Y5 // t2
	VADDPD Y5, Y4, Y4 // R

	// hfsq := 0.5·f·f
	VMULPD normC<>+32(SB), Y2, Y7
	VMULPD Y2, Y7, Y7

	// ln s = k·Ln2Hi − ((hfsq − (s·(hfsq+R) + k·Ln2Lo)) − f)
	VADDPD Y7, Y4, Y4
	VMULPD Y4, Y3, Y3
	VMULPD normC<>+480(SB), Y1, Y4
	VADDPD Y4, Y3, Y3
	VSUBPD Y3, Y7, Y7
	VSUBPD Y2, Y7, Y7
	VMULPD normC<>+448(SB), Y1, Y1
	VSUBPD Y7, Y1, Y1 // ln s

	// √(−2·ln s / s)
	VMULPD  normC<>+512(SB), Y1, Y1
	VDIVPD  Y0, Y1, Y1
	VSQRTPD Y1, Y1
	VMOVUPD Y1, (SI)

	ADDQ $32, SI
	DECQ CX
	JNZ  normloop
	VZEROUPPER
	RET
