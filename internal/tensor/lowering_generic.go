//go:build !amd64

package tensor

// No plane-shift kernels off amd64: elemActive() is false there, so the
// batched lowering runs the span walkers and these are never dispatched.

func im2colShiftAVX2(x, col *float32, shift, mask, tail *int32, inC, taps, blocks, rem, sc, ld int) {
	panic("tensor: plane-shift kernel dispatched without AVX2 support")
}

func col2imShiftAVX2(col, dx *float32, shift, mask, tail *int32, inC, taps, blocks, rem, sc, ld int) {
	panic("tensor: plane-shift kernel dispatched without AVX2 support")
}
