//go:build amd64

package tensor

import "os"

// amd64 micro-kernel dispatch. The GEMM has one tile per ISA level: 8×16 on
// AVX-512F (one ZMM per C row, gemm_avx512_amd64.s), 4×8 on AVX2 (one YMM
// per C row, gemm_amd64.s), and the Go tile of gemm.go everywhere else, a
// pre-AVX2 amd64 CPU included. Every level uses vector MUL then ADD — never
// FMA — with one C element per lane and k ascending, so each element is the
// same serial chain of roundings whatever the register width, and all levels
// are bit-identical (TestGemmSIMDMatchesGeneric, TestGemmTileZOracle).
//
// Two environment switches, each read once at init and each a CI step:
//
//	CROSSBOW_NOSIMD=1    every kernel of the package on its Go loop
//	CROSSBOW_NOAVX512=1  no ZMM kernel: the GEMM and the conv lowering on
//	                     their AVX2 level

var (
	gemmUseASM  = true
	gemmUseAVX2 bool
	gemmUseZ    bool
	// gemmHasZ is what setGemmZ(true) restores: AVX-512F present and not
	// switched off by CROSSBOW_NOAVX512.
	gemmHasZ bool
)

func init() {
	if os.Getenv("CROSSBOW_NOSIMD") != "" {
		gemmUseASM = false
		return
	}
	gemmUseAVX2 = detectAVX2()
	if os.Getenv("CROSSBOW_NOAVX512") == "" {
		gemmHasZ = gemmUseAVX2 && detectAVX512()
	}
	gemmUseZ = gemmHasZ
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

// detectAVX512 reports AVX-512F and AVX-512VL support — CPUID leaf 7 EBX
// bits 16 and 31; VL because the tile runs a block of at most eight columns
// in YMM registers with embedded broadcasts and opmasks, and every AVX-512
// part but Knights Landing has it — plus the OS saving opmask and full-ZMM
// state (XCR0 bits 5..7) alongside XMM/YMM.
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
	const fvl = 1<<16 | 1<<31
	return b7&fvl == fvl
}

// zActive reports whether the AVX-512 kernels — the 8×16 tile and the
// whole-row conv lowering — are dispatched right now.
func zActive() bool { return gemmUseASM && gemmUseZ }

// gemmTile returns the tile of the active ISA level; the drivers cut panels,
// bands and parallel grains in its units.
func gemmTile() (mr, nr int) {
	if zActive() {
		return gemmMaxMR, gemmMaxNR
	}
	return gemmMR, gemmNR
}

//go:noescape
func gemmMicroAccAVX2(kb int, ap, bp, c *float32, ldc int, alpha float32)

//go:noescape
func gemmMicroPreBSAVX2(kb int, ap, b *float32, ldb int, c *float32, ldc int)

//go:noescape
func gemmRowDirAVX2(kb int, a *float32, ars, acs int, b *float32, ldb int, c *float32, ldc, tiles int, zero bool)

//go:noescape
func gemmTileZ(t *zTile)

func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbvAsm() (eax, edx uint32)

// setGemmASM is a test hook: false forces the pure-Go micro-kernels.
// It returns the previous setting.
func setGemmASM(on bool) bool {
	prev := gemmUseASM
	gemmUseASM = on
	return prev
}

// setGemmZ is the test hook for register width: false takes every kernel
// that has a ZMM form — the GEMM tile, the conv lowering — to its AVX2 level
// (the CROSSBOW_NOAVX512 behaviour); true restores what init found. It
// returns the previous setting.
func setGemmZ(on bool) bool {
	prev := gemmUseZ
	gemmUseZ = on && gemmHasZ
	return prev
}

// zTile is gemmTileZ's argument block; strides are in bytes. Row p of the
// B operand is b + p·ldb for p < kb, the sixteen columns of a block read
// under the block's column mask. With taps > 0 B is a conv input read in
// place (Lowering.GemmConv): kb planes at stride ldb, row (plane, tap) the
// plane shifted by shift[tap] elements under mask[block mod period][tap].
type zTile struct {
	a        *float32 // A element (0, 0)
	ars, acs uintptr  // A strides: next row, next k step
	b        *float32
	ldb      uintptr
	kb       int
	c        *float32
	ldc      uintptr
	m, n     int     // both ≥ 1
	mode     int     // tilePreload, tileZero or tileAccAlpha
	alpha    float32 // tileAccAlpha only

	taps   int
	shift  *int32
	mask   *uint16
	period int
}

// gemmDirect computes the m × n matrix C with the fully direct kernel
// (alpha == 1): A read at row/column element strides ars/acs, B rows at
// stride ldb, no packing. zero starts the accumulators at +0 instead of
// preloading C. On AVX-512 it is one assembly call; on AVX2 each row of full
// 4×8 tiles is, and the Go kernel takes the edges.
func gemmDirect(kb int, a []float32, ars, acs int, b []float32, ldb int, c []float32, ldc, m, n int, zero bool) {
	if zActive() {
		t := zTile{
			a: &a[0], ars: uintptr(ars) * 4, acs: uintptr(acs) * 4,
			b: &b[0], ldb: uintptr(ldb) * 4, kb: kb,
			c: &c[0], ldc: uintptr(ldc) * 4, m: m, n: n,
		}
		if zero {
			t.mode = tileZero
		}
		gemmTileZ(&t)
		return
	}
	full := 0
	if elemActive() {
		full = n / gemmNR
	}
	for i := 0; i < m; i += gemmMR {
		rows, j := min(gemmMR, m-i), 0
		if rows == gemmMR && full > 0 {
			gemmRowDirAVX2(kb, &a[i*ars], ars, acs, &b[0], ldb, &c[i*ldc], ldc, full, zero)
			j = full * gemmNR
		}
		if j < n {
			gemmDirectGo(kb, a[i*ars:], ars, acs, b[j:], ldb, c[i*ldc+j:], ldc, rows, n-j, zero)
		}
	}
}

// gemmPanelTile computes one rows × cols tile of the packed drivers: ap is
// the tile's interleaved A panel (alpha folded in for tilePreload), b its B
// rows at stride ldb — the packed panel or, direct-B, the matrix itself.
// mode is tilePreload or tileAccAlpha (C += alpha·Σ).
func gemmPanelTile(kb int, ap, b []float32, ldb int, c []float32, ldc, rows, cols, mode int, alpha float32) {
	switch {
	case zActive():
		t := zTile{
			a: &ap[0], ars: 4, acs: gemmMaxMR * 4,
			b: &b[0], ldb: uintptr(ldb) * 4, kb: kb,
			c: &c[0], ldc: uintptr(ldc) * 4, m: rows, n: cols,
			mode: mode, alpha: alpha,
		}
		gemmTileZ(&t)
	case rows != gemmMR || cols != gemmNR || !elemActive():
		gemmTileGo(kb, ap, 1, gemmMR, b, ldb, c, ldc, rows, cols, mode, alpha)
	case mode == tilePreload:
		gemmMicroPreBSAVX2(kb, &ap[0], &b[0], ldb, &c[0], ldc)
	default: // GemmTB always packs B
		gemmMicroAccAVX2(kb, &ap[0], &b[0], &c[0], ldc, alpha)
	}
}
