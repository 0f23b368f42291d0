//go:build !amd64

package tensor

// Portable micro-kernel fallback: the Go tile of gemm.go at 4×8, same
// per-element accumulation order, so results are bit-identical to the amd64
// assembly kernels.

func gemmTile() (mr, nr int) { return gemmMR, gemmNR }

func gemmDirect(kb int, a []float32, ars, acs int, b []float32, ldb int, c []float32, ldc, m, n int, zero bool) {
	gemmDirectGo(kb, a, ars, acs, b, ldb, c, ldc, m, n, zero)
}

func gemmPanelTile(kb int, ap, b []float32, ldb int, c []float32, ldc, rows, cols, mode int, alpha float32) {
	gemmTileGo(kb, ap, 1, gemmMR, b, ldb, c, ldc, rows, cols, mode, alpha)
}

// setGemmASM is a no-op on architectures without assembly kernels.
func setGemmASM(on bool) bool { return false }

// setGemmZ is a no-op on architectures without assembly kernels.
func setGemmZ(on bool) bool { return false }

func zActive() bool { return false }
