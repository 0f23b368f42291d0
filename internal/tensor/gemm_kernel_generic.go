//go:build !amd64

package tensor

// Portable micro-kernel fallback: same tile shape, same per-element
// accumulation order, so results are bit-identical to the amd64 assembly
// kernels.

func gemmMicroPre(kb int, ap, bp, c []float32, ldc int) {
	microGeneric(kb, ap, bp, c, ldc, gemmMR, gemmNR, 1, true)
}

func gemmMicroAcc(kb int, ap, bp, c []float32, ldc int, alpha float32) {
	microGeneric(kb, ap, bp, c, ldc, gemmMR, gemmNR, alpha, false)
}

func gemmMicroPreBS(kb int, ap, b []float32, ldb int, c []float32, ldc int) {
	microEdgeStridedB(kb, ap, b, ldb, c, ldc, gemmMR, gemmNR)
}

func gemmRowDir(kb int, a []float32, ars, acs int, b []float32, ldb int, c []float32, ldc, tiles int, zero bool) {
	gemmRowDirGo(kb, a, ars, acs, b, ldb, c, ldc, tiles, zero)
}

// setGemmASM is a no-op on architectures without assembly kernels.
func setGemmASM(on bool) bool { return false }

// setGemmAVX2 is a no-op on architectures without assembly kernels.
func setGemmAVX2(on bool) bool { return false }

// setGemmFMA is a no-op on architectures without assembly kernels.
func setGemmFMA(on bool) bool { return false }

// setGemmZ is a no-op on architectures without assembly kernels.
func setGemmZ(on bool) bool { return false }

// fmaActive: no FMA micro-kernels off amd64 — Fast mode computes with the
// Deterministic kernels, bit-for-bit.
func fmaActive() bool { return false }

func fmaZActive() bool { return false }

// The FMA micro-kernels are never dispatched when fmaActive is false;
// these stubs only satisfy the linker.
func gemmMicroFMAPack(kb int, ap, bp, c []float32, ldc int) {
	panic("tensor: FMA kernel dispatched without FMA support")
}

func gemmMicroFMABS(kb int, ap, b []float32, ldb int, c []float32, ldc int) {
	panic("tensor: FMA kernel dispatched without FMA support")
}

func gemmMicroFMAZ(kb int, ap, b []float32, ldb int, c []float32, ldc int) {
	panic("tensor: FMA kernel dispatched without FMA support")
}
