//go:build amd64

package tensor

import "os"

// amd64 micro-kernel dispatch. Two assembly kernels cover the full 4×8
// tile: an AVX2 one (one YMM per C row) used when the CPU supports it, and
// an SSE2 one (two XMM per C row) that every amd64 CPU can run. Both use
// vector MUL then ADD — never FMA — so each lane performs exactly the same
// rounding sequence as the scalar Go code, keeping the SIMD and generic
// paths bit-identical (asserted by TestGemmSIMDMatchesGeneric).
//
// Set CROSSBOW_NOSIMD=1 to force the pure-Go kernels.
//
// The opt-in Fast kernel mode additionally dispatches 8×8 FMA3 micro-
// kernels (gemm_fma_amd64.s), gated at runtime on CPUID reporting FMA3
// alongside the AVX2/OSXSAVE checks — never on build tags alone. Set
// CROSSBOW_NOFMA=1 to force Fast mode onto the deterministic kernels so
// any runner can exercise the fallback path.

var (
	gemmUseASM  = true
	gemmUseAVX2 bool
	gemmUseFMA  bool
	gemmUseZ    bool
)

func init() {
	if os.Getenv("CROSSBOW_NOSIMD") != "" {
		gemmUseASM = false
		return
	}
	gemmUseAVX2 = detectAVX2()
	if os.Getenv("CROSSBOW_NOFMA") == "" {
		gemmUseFMA = gemmUseAVX2 && detectFMA()
	}
	if os.Getenv("CROSSBOW_NOAVX512") == "" {
		gemmUseZ = gemmUseFMA && detectAVX512()
	}
}

func detectAVX2() bool {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuidAsm(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	// The OS must save/restore XMM and YMM state.
	if eax, _ := xgetbvAsm(); eax&6 != 6 {
		return false
	}
	_, b7, _, _ := cpuidAsm(7, 0)
	return b7&(1<<5) != 0
}

// detectFMA reports FMA3 support (CPUID leaf 1 ECX bit 12). The OS-state
// prerequisites (OSXSAVE, XGETBV YMM enable) are detectAVX2's checks, so
// callers must AND the two.
func detectFMA() bool {
	_, _, c1, _ := cpuidAsm(1, 0)
	return c1&(1<<12) != 0
}

// detectAVX512 reports AVX-512F support: CPUID leaf 7 EBX bit 16 plus the
// OS saving opmask and full-ZMM state (XCR0 bits 5..7) alongside XMM/YMM.
func detectAVX512() bool {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuidAsm(1, 0)
	if c1&(1<<27) == 0 { // OSXSAVE
		return false
	}
	if eax, _ := xgetbvAsm(); eax&0xE6 != 0xE6 {
		return false
	}
	_, b7, _, _ := cpuidAsm(7, 0)
	return b7&(1<<16) != 0
}

// fmaActive reports whether Fast-mode GEMM will actually run the FMA3
// micro-kernels right now (CPU capable, not disabled by env or test hooks).
func fmaActive() bool { return gemmUseASM && gemmUseFMA }

// fmaZActive reports whether the 8×16 AVX-512 kernel is dispatched on top
// of the FMA path. Purely a width upgrade: bits are identical either way.
func fmaZActive() bool { return gemmUseASM && gemmUseFMA && gemmUseZ }

//go:noescape
func gemmMicroPreSSE(kb int, ap, bp, c *float32, ldc int)

//go:noescape
func gemmMicroAccSSE(kb int, ap, bp, c *float32, ldc int, alpha float32)

//go:noescape
func gemmMicroPreAVX2(kb int, ap, bp, c *float32, ldc int)

//go:noescape
func gemmMicroAccAVX2(kb int, ap, bp, c *float32, ldc int, alpha float32)

//go:noescape
func gemmMicroPreBSSSE(kb int, ap, b *float32, ldb int, c *float32, ldc int)

//go:noescape
func gemmMicroPreBSAVX2(kb int, ap, b *float32, ldb int, c *float32, ldc int)

//go:noescape
func gemmMicroPreDirSSE(kb int, a *float32, ars, acs int, b *float32, ldb int, c *float32, ldc int)

//go:noescape
func gemmRowDirAVX2(kb int, a *float32, ars, acs int, b *float32, ldb int, c *float32, ldc, tiles int, zero bool)

//go:noescape
func gemmMicroFMAPack8(kb int, ap, bp, c *float32, ldc int)

//go:noescape
func gemmMicroFMABS8(kb int, ap, b *float32, ldb int, c *float32, ldc int)

//go:noescape
func gemmMicroFMAZ16(kb int, ap, b *float32, ldb int, c *float32, ldc int)

func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbvAsm() (eax, edx uint32)

// setGemmASM is a test hook: false forces the pure-Go micro-kernels.
// It returns the previous setting.
func setGemmASM(on bool) bool {
	prev := gemmUseASM
	gemmUseASM = on
	return prev
}

// setGemmAVX2 is a test hook: false forces the SSE2 kernels even on
// AVX2-capable CPUs, so both assembly paths are exercised in CI. It
// returns the previous setting.
func setGemmAVX2(on bool) bool {
	prev := gemmUseAVX2
	gemmUseAVX2 = on && detectAVX2()
	return prev
}

// setGemmFMA is a test hook: false forces Fast mode onto the deterministic
// kernels (the CROSSBOW_NOFMA behaviour); true re-enables FMA only if the
// CPU actually has it. It returns the previous setting.
func setGemmFMA(on bool) bool {
	prev := gemmUseFMA
	gemmUseFMA = on && detectAVX2() && detectFMA()
	return prev
}

// setGemmZ is a test hook: false forces the fast path onto the 8×8 YMM
// kernels even on AVX-512 CPUs (the CROSSBOW_NOAVX512 behaviour). It
// returns the previous setting.
func setGemmZ(on bool) bool {
	prev := gemmUseZ
	gemmUseZ = on && gemmUseFMA && detectAVX512()
	return prev
}

// gemmMicroFMAPack computes one full 8×8 tile over packed A/B panels with
// FMA, accumulators preloaded from C (alpha already folded into ap).
func gemmMicroFMAPack(kb int, ap, bp, c []float32, ldc int) {
	gemmMicroFMAPack8(kb, &ap[0], &bp[0], &c[0], ldc)
}

// gemmMicroFMABS is gemmMicroFMAPack reading B rows directly at stride ldb.
func gemmMicroFMABS(kb int, ap, b []float32, ldb int, c []float32, ldc int) {
	gemmMicroFMABS8(kb, &ap[0], &b[0], ldb, &c[0], ldc)
}

// gemmMicroFMAZ is the 8×16 AVX-512 variant of gemmMicroFMABS.
func gemmMicroFMAZ(kb int, ap, b []float32, ldb int, c []float32, ldc int) {
	gemmMicroFMAZ16(kb, &ap[0], &b[0], ldb, &c[0], ldc)
}

// gemmMicroPre computes one full 4×8 tile with accumulators preloaded from
// C (alpha already folded into ap), overwriting C.
func gemmMicroPre(kb int, ap, bp, c []float32, ldc int) {
	if !gemmUseASM {
		microGeneric(kb, ap, bp, c, ldc, gemmMR, gemmNR, 1, true)
		return
	}
	if gemmUseAVX2 {
		gemmMicroPreAVX2(kb, &ap[0], &bp[0], &c[0], ldc)
	} else {
		gemmMicroPreSSE(kb, &ap[0], &bp[0], &c[0], ldc)
	}
}

// gemmMicroPreBS is gemmMicroPre reading B rows directly at stride ldb
// (no packed panel).
func gemmMicroPreBS(kb int, ap, b []float32, ldb int, c []float32, ldc int) {
	if !gemmUseASM {
		microEdgeStridedB(kb, ap, b, ldb, c, ldc, gemmMR, gemmNR)
		return
	}
	if gemmUseAVX2 {
		gemmMicroPreBSAVX2(kb, &ap[0], &b[0], ldb, &c[0], ldc)
	} else {
		gemmMicroPreBSSSE(kb, &ap[0], &b[0], ldb, &c[0], ldc)
	}
}

// gemmRowDir computes `tiles` adjacent full 4×8 tiles of one tile row with
// the fully direct kernel (alpha == 1): A read at row/column element strides
// ars/acs, B rows at stride ldb, no packing; b and c point at the first
// tile's column. zero starts the accumulators at +0 instead of preloading C.
func gemmRowDir(kb int, a []float32, ars, acs int, b []float32, ldb int, c []float32, ldc, tiles int, zero bool) {
	switch {
	case !gemmUseASM:
		gemmRowDirGo(kb, a, ars, acs, b, ldb, c, ldc, tiles, zero)
	case gemmUseAVX2:
		gemmRowDirAVX2(kb, &a[0], ars, acs, &b[0], ldb, &c[0], ldc, tiles, zero)
	default:
		for t := 0; t < tiles; t++ {
			cp := c[t*gemmNR:]
			if zero {
				zeroTile(cp, ldc, gemmMR, gemmNR)
			}
			gemmMicroPreDirSSE(kb, &a[0], ars, acs, &b[t*gemmNR], ldb, &cp[0], ldc)
		}
	}
}

// gemmMicroAcc computes one full 4×8 tile from zero and applies
// C += alpha * acc (GemmTB's association).
func gemmMicroAcc(kb int, ap, bp, c []float32, ldc int, alpha float32) {
	if !gemmUseASM {
		microGeneric(kb, ap, bp, c, ldc, gemmMR, gemmNR, alpha, false)
		return
	}
	if gemmUseAVX2 {
		gemmMicroAccAVX2(kb, &ap[0], &bp[0], &c[0], ldc, alpha)
	} else {
		gemmMicroAccSSE(kb, &ap[0], &bp[0], &c[0], ldc, alpha)
	}
}
