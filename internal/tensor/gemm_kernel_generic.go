//go:build !amd64

package tensor

// Portable micro-kernel fallback: the Go kernels of gemm.go at the 4×8 tile,
// same per-element accumulation order, so results are bit-identical to the
// amd64 assembly kernels.

func gemmTile() (mr, nr int) { return gemmMR, gemmNR }

func gemmDirect(kb int, a []float32, ars, acs int, b []float32, ldb int, c []float32, ldc, m, n int, zero bool) {
	gemmDirectGo(kb, a, ars, acs, b, ldb, c, ldc, m, n, zero)
}

func gemmPanelTile(kb int, ap, b []float32, ldb int, c []float32, ldc, rows, cols int, alpha float32, preload bool) {
	microGeneric(kb, ap, b, ldb, c, ldc, rows, cols, alpha, preload)
}

// setGemmASM is a no-op on architectures without assembly kernels.
func setGemmASM(on bool) bool { return false }

// setGemmZ is a no-op on architectures without assembly kernels.
func setGemmZ(on bool) bool { return false }

func zActive() bool { return false }
