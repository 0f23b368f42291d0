//go:build amd64

package tensor

// AVX2 dispatch for the optimiser kernels, on elem_amd64.go's convention:
// each *ASM helper covers len&^7 elements and returns that count (0 when
// SIMD is off), the Go caller finishes the tail.

//go:noescape
func smaCorrectStepAccAVX2(w, grad, v, z, acc *float32, n int, alpha, lr, mu float32)

//go:noescape
func smaCorrectStepOutAVX2(w, grad, v, z, out *float32, n int, alpha, lr, mu float32)

//go:noescape
func smaLocalStepAVX2(w, grad, v *float32, n int, lr, mu float32)

//go:noescape
func smaFoldAVX2(z, zPrev, delta *float32, n int, mu float32)

//go:noescape
func smaDistFoldAVX2(ref, z, zPrev, sum *float32, n int, alpha, parts, mu float32)

func smaCorrectStepASM(w, g, v, z, dst []float32, alpha, lr, mu float32, accumulate bool) int {
	n := len(w) &^ 7
	if n == 0 || !elemActive() {
		return 0
	}
	if accumulate {
		smaCorrectStepAccAVX2(&w[0], &g[0], &v[0], &z[0], &dst[0], n, alpha, lr, mu)
	} else {
		smaCorrectStepOutAVX2(&w[0], &g[0], &v[0], &z[0], &dst[0], n, alpha, lr, mu)
	}
	return n
}

func smaLocalStepASM(w, g, v []float32, lr, mu float32) int {
	n := len(w) &^ 7
	if n == 0 || !elemActive() {
		return 0
	}
	smaLocalStepAVX2(&w[0], &g[0], &v[0], n, lr, mu)
	return n
}

func smaFoldASM(z, zPrev, delta []float32, mu float32) int {
	n := len(z) &^ 7
	if n == 0 || !elemActive() {
		return 0
	}
	smaFoldAVX2(&z[0], &zPrev[0], &delta[0], n, mu)
	return n
}

func smaDistFoldASM(ref, z, zPrev, sum []float32, alpha, parts, mu float32) int {
	n := len(z) &^ 7
	if n == 0 || !elemActive() {
		return 0
	}
	smaDistFoldAVX2(&ref[0], &z[0], &zPrev[0], &sum[0], n, alpha, parts, mu)
	return n
}
