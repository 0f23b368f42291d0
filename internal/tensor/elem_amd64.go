//go:build amd64

package tensor

// AVX2 dispatch for the elementwise kernels. Each asm routine processes
// len&^7 elements (whole 8-lane vectors) and the Go caller finishes the
// tail, so the *ASM helpers return how many elements they covered: 0 when
// SIMD is off (CROSSBOW_NOSIMD or a pre-AVX2 CPU), which routes the whole
// slice through the scalar loop. The vector ops round identically to the
// scalar ones (see elem.go), so the split point never changes results.

//go:noescape
func accumAddAVX2(dst, src *float32, n int)

//go:noescape
func addAVX2(dst, a, b *float32, n int)

//go:noescape
func epiRowAVX2(row *float32, n int, bias, gamma, beta, mean, invStd float32, stages int)

//go:noescape
func reluFwdAVX2(dst, src *float32, n int)

//go:noescape
func reluBwdAVX2(dst, dy, y *float32, n int)

//go:noescape
func addReluAVX2(dst, a, b *float32, n int)

func elemActive() bool { return gemmUseASM && gemmUseAVX2 }

func elemAccumAddASM(dst, src []float32) int {
	n := len(dst) &^ 7
	if n == 0 || !elemActive() {
		return 0
	}
	accumAddAVX2(&dst[0], &src[0], n)
	return n
}

func elemAddASM(dst, a, b []float32) int {
	n := len(dst) &^ 7
	if n == 0 || !elemActive() {
		return 0
	}
	addAVX2(&dst[0], &a[0], &b[0], n)
	return n
}

func elemEpiRowASM(row []float32, bias, gamma, beta, mean, invStd float32, stages int) int {
	n := len(row) &^ 7
	if n == 0 || !elemActive() {
		return 0
	}
	epiRowAVX2(&row[0], n, bias, gamma, beta, mean, invStd, stages)
	return n
}

func elemReluFwdASM(dst, src []float32) int {
	n := len(dst) &^ 7
	if n == 0 || !elemActive() {
		return 0
	}
	reluFwdAVX2(&dst[0], &src[0], n)
	return n
}

func elemReluBwdASM(dst, dy, y []float32) int {
	n := len(dst) &^ 7
	if n == 0 || !elemActive() {
		return 0
	}
	reluBwdAVX2(&dst[0], &dy[0], &y[0], n)
	return n
}

func elemAddReluASM(dst, a, b []float32) int {
	n := len(dst) &^ 7
	if n == 0 || !elemActive() {
		return 0
	}
	addReluAVX2(&dst[0], &a[0], &b[0], n)
	return n
}
