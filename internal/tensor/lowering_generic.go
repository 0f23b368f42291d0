//go:build !amd64

package tensor

// No lowering kernels off amd64: elemActive() and zActive() are false there,
// so the batched lowering replays its index table in Go and these are never
// dispatched.

func im2colShiftAVX2(x, col *float32, shift, mask, tail *int32, inC, taps, blocks, rem, sc, ld int) {
	panic("tensor: plane-shift kernel dispatched without AVX2 support")
}

func col2imShiftAVX2(col, dx *float32, shift, mask, tail *int32, inC, taps, blocks, rem, sc, ld int) {
	panic("tensor: plane-shift kernel dispatched without AVX2 support")
}

func (l *Lowering) lowerZ(adjoint bool, lo, hi int, x []float32, sn, sc int, col []float32, ld int) {
	panic("tensor: lowering kernel dispatched without AVX-512 support")
}

func (l *Lowering) gemmConvSamples(lo, hi, batch int, w, x []float32, sn, sc int, y []float32, epi *Epilogue) {
	panic("tensor: GemmConv dispatched without AVX-512 support")
}
