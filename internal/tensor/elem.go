package tensor

// Elementwise kernels for the layers around the GEMMs: ReLU forward and
// backward masking, residual add+ReLU joins and their backward sum, and
// col2im's contiguous accumulation. Every operation here is exact in IEEE float32 — max,
// compare-and-select, and a single addition per element — so the SIMD
// paths are bit-identical to the scalar loops and safe in BOTH kernel
// modes; the deterministic contract is untouched. The scaled benchmark
// models spend a large share of their epoch in these loops (the tensors
// are small, so the branchy scalar forms are misprediction-bound), which
// is what makes them worth vectorising alongside the GEMM micro-kernels.
//
// NaN/signed-zero contract (pinned by TestElemOracle): relu(x) follows
// MAXPS(x, 0) semantics — NaN and -0 both map to +0 — and the backward
// masks treat a NaN pre-activation as "not positive" (gradient 0), exactly
// like the scalar comparisons.

// AccumAdd computes dst[i] += src[i]. Lengths must match.
func AccumAdd(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: AccumAdd length mismatch")
	}
	n := elemAccumAddASM(dst, src)
	for i := n; i < len(dst); i++ {
		dst[i] += src[i]
	}
}

// Add computes dst[i] = a[i] + b[i] — the residual block's input gradient,
// the sum of its two paths'. dst may alias a or b.
func Add(dst, a, b []float32) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("tensor: Add length mismatch")
	}
	n := elemAddASM(dst, a, b)
	for i := n; i < len(dst); i++ {
		dst[i] = a[i] + b[i]
	}
}

// ReluFwd computes dst[i] = max(src[i], 0). dst may alias src.
func ReluFwd(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: ReluFwd length mismatch")
	}
	n := elemReluFwdASM(dst, src)
	for i := n; i < len(dst); i++ {
		if v := src[i]; v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// ReluBwd computes dst[i] = dy[i] where y[i] > 0, else 0 — the ReLU
// gradient mask, with the forward output doubling as the mask.
func ReluBwd(dst, dy, y []float32) {
	if len(dst) != len(dy) || len(dy) != len(y) {
		panic("tensor: ReluBwd length mismatch")
	}
	n := elemReluBwdASM(dst, dy, y)
	for i := n; i < len(dst); i++ {
		if y[i] > 0 {
			dst[i] = dy[i]
		} else {
			dst[i] = 0
		}
	}
}

// AddRelu computes dst[i] = max(a[i]+b[i], 0) — the residual join.
func AddRelu(dst, a, b []float32) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("tensor: AddRelu length mismatch")
	}
	n := elemAddReluASM(dst, a, b)
	for i := n; i < len(dst); i++ {
		if v := a[i] + b[i]; v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}
