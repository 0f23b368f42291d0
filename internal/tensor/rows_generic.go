//go:build !amd64

package tensor

// Non-amd64 stubs: every channel-row kernel runs its scalar Go loop.

func rowSums64ASM(sum []float64, x []float32, rows, l int) (r0, i0 int)             { return 0, 0 }
func rowSqDevs64ASM(sq []float64, x, mean []float32, rows, l int) (r0, i0 int)      { return 0, 0 }
func rowDots64ASM(sa, sab []float64, a, b []float32, rows, l int) (r0, i0 int)      { return 0, 0 }
func rowSegSums32ASM(acc, x []float32, rows, segs, seg int) int                     { return 0 }
func normRowASM(y, xhat, x []float32, mean, invStd, gamma, beta float32) int        { return 0 }
func normGradRowASM(dx, dy, xhat []float32, k, mDy, mDyXhat float32) int            { return 0 }
func transposeASM(dst, src []float32, rows, cols int, add bool) (r0, c0 int)        { return 0, 0 }
func packTr8ASM(dst []float32, dstStride int, src []float32, srcStride, kb int) int { return 0 }
