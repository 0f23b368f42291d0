package tensor

// Channel-row kernels: the per-channel reductions and elementwise passes of
// batch normalisation, the conv bias gradient, and the plain transposes the
// conv weight gradient stages through. Activations inside internal/nn are
// channel-major — a rows × l row-major matrix whose row r is channel r's
// batch·plane values — so each kernel here takes such a matrix.
//
// The lane-per-channel rule. A reduction's value depends on the order of its
// additions, and every reduction here is pinned to the scalar loop's: one
// accumulator per channel, the channel's elements added in ascending
// position. The SIMD kernels keep that chain by putting eight CHANNELS in
// the eight lanes, never eight positions of one channel: they load four
// consecutive positions from each of eight rows, transpose in registers, and
// then perform, for position after position, exactly the scalar loop's
// operations on all eight channels at once — the float32 subtract before the
// widening where the Go code subtracts before converting, VCVTPS2PD where it
// converts, VMULPD then VADDPD (never an FMA) where it multiplies and adds.
// Lane c never sees another channel's data, so each channel's sum is the
// serial chain it always was and the results are bit-identical to the
// scalar loops (TestRowKernelOracle), which remain the fallback for SIMD-off
// builds, for the rows beyond the last multiple of eight and for the
// positions beyond the last multiple of four. A NaN stays a NaN in its lane;
// which payload survives is not pinned (DESIGN.md §17).
//
// The elementwise halves (NormRow, NormGradRow) and the transposes have no
// order to keep: they are 8-wide in the scalar expression's evaluation order.

// RowSums64 sets sum[r] = Σᵢ float64(x[r·l+i]): every row summed serially in
// ascending i from +0 (batch-norm's mean).
func RowSums64(sum []float64, x []float32, rows, l int) {
	if len(sum) < rows || len(x) < rows*l {
		panic("tensor: RowSums64 buffer too small")
	}
	clear(sum[:rows])
	r0, i0 := rowSums64ASM(sum, x, rows, l)
	for r := 0; r < rows; r++ {
		s := sum[r]
		for _, v := range x[r*l+rowFrom(r, r0, i0) : (r+1)*l] {
			s += float64(v)
		}
		sum[r] = s
	}
}

// RowSqDevs64 sets sq[r] = Σᵢ d·d with d = float64(x[r·l+i] − mean[r]), the
// subtraction in float32 (batch-norm's variance).
func RowSqDevs64(sq []float64, x, mean []float32, rows, l int) {
	if len(sq) < rows || len(mean) < rows || len(x) < rows*l {
		panic("tensor: RowSqDevs64 buffer too small")
	}
	clear(sq[:rows])
	r0, i0 := rowSqDevs64ASM(sq, x, mean, rows, l)
	for r := 0; r < rows; r++ {
		s, m := sq[r], mean[r]
		for _, v := range x[r*l+rowFrom(r, r0, i0) : (r+1)*l] {
			d := float64(v - m)
			s += d * d
		}
		sq[r] = s
	}
}

// RowDots64 sets sa[r] = Σᵢ float64(a[r·l+i]) and sab[r] = Σᵢ
// float64(a[r·l+i])·float64(b[r·l+i]) (batch-norm's ΣdY and ΣdY·x̂).
func RowDots64(sa, sab []float64, a, b []float32, rows, l int) {
	if len(sa) < rows || len(sab) < rows || len(a) < rows*l || len(b) < rows*l {
		panic("tensor: RowDots64 buffer too small")
	}
	clear(sa[:rows])
	clear(sab[:rows])
	r0, i0 := rowDots64ASM(sa, sab, a, b, rows, l)
	for r := 0; r < rows; r++ {
		s, sp := sa[r], sab[r]
		from := rowFrom(r, r0, i0)
		brow := b[r*l+from : (r+1)*l]
		for i, v := range a[r*l+from : (r+1)*l] {
			s += float64(v)
			sp += float64(v) * float64(brow[i])
		}
		sa[r], sab[r] = s, sp
	}
}

// RowSegSums32 adds to acc[r], segment after segment, the float32 sum of row
// r's n-th run of seg elements, each run summed serially from +0 (the conv
// bias gradient: one partial sum per sample, folded in sample order).
func RowSegSums32(acc, x []float32, rows, segs, seg int) {
	l := segs * seg
	if len(acc) < rows || len(x) < rows*l {
		panic("tensor: RowSegSums32 buffer too small")
	}
	for r := rowSegSums32ASM(acc, x, rows, segs, seg); r < rows; r++ {
		a := acc[r]
		for n := 0; n < segs; n++ {
			var s float32
			for _, v := range x[r*l+n*seg : r*l+(n+1)*seg] {
				s += v
			}
			a += s
		}
		acc[r] = a
	}
}

// rowFrom is where the scalar loop takes over row r: the assembly covered
// positions [0, i0) of rows [0, r0).
func rowFrom(r, r0, i0 int) int {
	if r < r0 {
		return i0
	}
	return 0
}

// NormRow computes xhat[i] = (x[i] − mean)·invStd and y[i] = gamma·xhat[i] +
// beta over one channel row.
func NormRow(y, xhat, x []float32, mean, invStd, gamma, beta float32) {
	if len(y) != len(x) || len(xhat) != len(x) {
		panic("tensor: NormRow length mismatch")
	}
	for i := normRowASM(y, xhat, x, mean, invStd, gamma, beta); i < len(x); i++ {
		xh := (x[i] - mean) * invStd
		xhat[i] = xh
		y[i] = gamma*xh + beta
	}
}

// NormGradRow computes dx[i] = k·(dy[i] − mDy − xhat[i]·mDyXhat) over one
// channel row (batch-norm's training-mode input gradient, k = gamma·invStd).
func NormGradRow(dx, dy, xhat []float32, k, mDy, mDyXhat float32) {
	if len(dx) != len(dy) || len(xhat) != len(dy) {
		panic("tensor: NormGradRow length mismatch")
	}
	for i := normGradRowASM(dx, dy, xhat, k, mDy, mDyXhat); i < len(dy); i++ {
		dx[i] = k * (dy[i] - mDy - xhat[i]*mDyXhat)
	}
}

// Transpose writes the transpose of the rows × cols row-major matrix src
// into dst (cols × rows).
func Transpose(dst, src []float32, rows, cols int) { transpose(dst, src, rows, cols, false) }

// TransposeAdd adds the transpose of src into dst: dst[c·rows+r] +=
// src[r·cols+c], one addition per element.
func TransposeAdd(dst, src []float32, rows, cols int) { transpose(dst, src, rows, cols, true) }

func transpose(dst, src []float32, rows, cols int, add bool) {
	if len(dst) < rows*cols || len(src) < rows*cols {
		panic("tensor: Transpose buffer too small")
	}
	// 8×8 blocks in registers; the scalar loop finishes the rows beyond the
	// last multiple of eight and the columns beyond it.
	r0, c0 := transposeASM(dst, src, rows, cols, add)
	for r := 0; r < rows; r++ {
		for c := rowFrom(r, r0, c0); c < cols; c++ {
			if add {
				dst[c*rows+r] += src[r*cols+c]
			} else {
				dst[c*rows+r] = src[r*cols+c]
			}
		}
	}
}

// SwapOuter transposes the two outer axes of the a × b × run array src into
// dst (b × a × run): NCHW → channel-major is SwapOuter(dst, src, N, C, H·W),
// and back is the same call with N and C exchanged.
func SwapOuter(dst, src []float32, a, b, run int) {
	if len(dst) < a*b*run || len(src) < a*b*run {
		panic("tensor: SwapOuter buffer too small")
	}
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			copy(dst[(j*a+i)*run:][:run], src[(i*b+j)*run:][:run])
		}
	}
}
