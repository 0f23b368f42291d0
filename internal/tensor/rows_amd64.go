//go:build amd64

package tensor

// AVX2 dispatch for the channel-row kernels (rows.go). The reductions work
// on groups of eight rows and blocks of four positions; each *ASM helper
// reports what it covered — (rows, positions) for the reductions, elements
// for the elementwise passes — and returns zeros with SIMD off, which sends
// everything through the caller's scalar loop.

//go:noescape
func rowSums64AVX2(sum *float64, x *float32, ld, blocks int)

//go:noescape
func rowSqDevs64AVX2(sq *float64, x, mean *float32, ld, blocks int)

//go:noescape
func rowDots64AVX2(sa, sab *float64, a, b *float32, ld, blocks int)

//go:noescape
func rowSegSums32AVX2(acc, x *float32, ld, segs, blocks int)

//go:noescape
func normRowAVX2(y, xhat, x *float32, n int, mean, invStd, gamma, beta float32)

//go:noescape
func normGradRowAVX2(dx, dy, xhat *float32, n int, k, mDy, mDyXhat float32)

//go:noescape
func transpose8AVX2(dst, src *float32, dstStride, srcStride, blocks int, add bool)

// rowGroups is the part of a rows × l matrix the reduction kernels take:
// whole groups of eight rows, whole blocks of four positions.
func rowGroups(rows, l int) (r0, i0 int) {
	if r0, i0 = rows&^7, l&^3; r0 == 0 || i0 == 0 || !elemActive() {
		return 0, 0
	}
	return r0, i0
}

func rowSums64ASM(sum []float64, x []float32, rows, l int) (r0, i0 int) {
	r0, i0 = rowGroups(rows, l)
	for r := 0; r < r0; r += 8 {
		rowSums64AVX2(&sum[r], &x[r*l], l, i0/4)
	}
	return r0, i0
}

func rowSqDevs64ASM(sq []float64, x, mean []float32, rows, l int) (r0, i0 int) {
	r0, i0 = rowGroups(rows, l)
	for r := 0; r < r0; r += 8 {
		rowSqDevs64AVX2(&sq[r], &x[r*l], &mean[r], l, i0/4)
	}
	return r0, i0
}

func rowDots64ASM(sa, sab []float64, a, b []float32, rows, l int) (r0, i0 int) {
	r0, i0 = rowGroups(rows, l)
	for r := 0; r < r0; r += 8 {
		rowDots64AVX2(&sa[r], &sab[r], &a[r*l], &b[r*l], l, i0/4)
	}
	return r0, i0
}

// rowSegSums32ASM covers whole groups of eight rows when a segment is whole
// blocks of four positions, and nothing otherwise; it returns the rows done.
func rowSegSums32ASM(acc, x []float32, rows, segs, seg int) int {
	r0 := rows &^ 7
	if r0 == 0 || segs == 0 || seg == 0 || seg%4 != 0 || !elemActive() {
		return 0
	}
	for r := 0; r < r0; r += 8 {
		rowSegSums32AVX2(&acc[r], &x[r*segs*seg], segs*seg, segs, seg/4)
	}
	return r0
}

func normRowASM(y, xhat, x []float32, mean, invStd, gamma, beta float32) int {
	n := len(x) &^ 7
	if n == 0 || !elemActive() {
		return 0
	}
	normRowAVX2(&y[0], &xhat[0], &x[0], n, mean, invStd, gamma, beta)
	return n
}

func normGradRowASM(dx, dy, xhat []float32, k, mDy, mDyXhat float32) int {
	n := len(dy) &^ 7
	if n == 0 || !elemActive() {
		return 0
	}
	normGradRowAVX2(&dx[0], &dy[0], &xhat[0], n, k, mDy, mDyXhat)
	return n
}

func transposeASM(dst, src []float32, rows, cols int, add bool) (r0, c0 int) {
	if r0, c0 = rows&^7, cols&^7; r0 == 0 || c0 == 0 || !elemActive() {
		return 0, 0
	}
	for r := 0; r < r0; r += 8 {
		transpose8AVX2(&dst[r], &src[r*cols], rows, cols, c0/8, add)
	}
	return r0, c0
}

// packTr8ASM transposes the 8 × kb block at src (row stride srcStride) into
// dst: source column p becomes the eight floats at dst[p·dstStride:]. It
// returns the columns done — kb&^7, or 0 with SIMD off — and the caller's
// loop finishes the rest.
func packTr8ASM(dst []float32, dstStride int, src []float32, srcStride, kb int) int {
	n := kb &^ 7
	if n == 0 || !elemActive() {
		return 0
	}
	transpose8AVX2(&dst[0], &src[0], dstStride, srcStride, n/8, false)
	return n
}
