package tensor

import "math"

// This file contains the flat vector kernels used by the training algorithms.
// Crossbow keeps each model replica's weights and gradients in contiguous
// memory (paper §4.4), so SMA corrections, momentum updates and all-reduce
// are expressed as operations on raw []float32 of equal length.

// Axpy computes y += a*x element-wise. Slices must have equal length.
func Axpy(a float32, x, y []float32) {
	if len(x) != len(y) {
		panic("tensor: Axpy length mismatch")
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// Scal scales x in place by a.
func Scal(a float32, x []float32) {
	for i := range x {
		x[i] *= a
	}
}

// Dot returns the inner product of x and y in float64 precision.
func Dot(x, y []float32) float64 {
	if len(x) != len(y) {
		panic("tensor: Dot length mismatch")
	}
	var s float64
	for i := range x {
		s += float64(x[i]) * float64(y[i])
	}
	return s
}

// Sub computes dst = a - b element-wise. dst may alias a or b.
func Sub(dst, a, b []float32) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("tensor: Sub length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// Copy copies src into dst; lengths must match.
func Copy(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: Copy length mismatch")
	}
	copy(dst, src)
}

// ZeroSlice sets every element of x to 0.
func ZeroSlice(x []float32) {
	for i := range x {
		x[i] = 0
	}
}

// L2 returns the Euclidean norm of x.
func L2(x []float32) float64 {
	var s float64
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// MaxAbsDiff returns the largest absolute element-wise difference between x
// and y; useful in tests asserting replica consistency.
func MaxAbsDiff(x, y []float32) float64 {
	if len(x) != len(y) {
		panic("tensor: MaxAbsDiff length mismatch")
	}
	var m float64
	for i := range x {
		if d := math.Abs(float64(x[i]) - float64(y[i])); d > m {
			m = d
		}
	}
	return m
}

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float32) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += float64(v)
	}
	return s / float64(len(x))
}

// AverageInto writes the element-wise average of the given vectors into dst.
// All vectors must share dst's length and there must be at least one.
func AverageInto(dst []float32, vecs ...[]float32) {
	if len(vecs) == 0 {
		panic("tensor: AverageInto with no inputs")
	}
	inv := 1 / float32(len(vecs))
	for i := range dst {
		var s float32
		for _, v := range vecs {
			s += v[i]
		}
		dst[i] = s * inv
	}
}

// Clip bounds every element of x to [-c, c]. Gradient clipping keeps the
// scaled-down benchmark models stable at the paper's learning rates.
func Clip(x []float32, c float32) {
	if c <= 0 {
		return
	}
	for i, v := range x {
		if v > c {
			x[i] = c
		} else if v < -c {
			x[i] = -c
		}
	}
}
