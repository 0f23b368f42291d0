//go:build !amd64

package tensor

// Non-amd64 stubs: every elementwise kernel runs the scalar Go loop.

func elemActive() bool { return false }

func elemAccumAddASM(dst, src []float32) int  { return 0 }
func elemAddASM(dst, a, b []float32) int      { return 0 }
func elemReluFwdASM(dst, src []float32) int   { return 0 }
func elemReluBwdASM(dst, dy, y []float32) int { return 0 }
func elemAddReluASM(dst, a, b []float32) int  { return 0 }

func elemEpiRowASM(row []float32, bias, gamma, beta, mean, invStd float32, stages int) int {
	return 0
}

func smaCorrectStepASM(w, g, v, z, dst []float32, alpha, lr, mu float32, accumulate bool) int {
	return 0
}
func smaLocalStepASM(w, g, v []float32, lr, mu float32) int                     { return 0 }
func smaFoldASM(z, zPrev, delta []float32, mu float32) int                      { return 0 }
func smaDistFoldASM(ref, z, zPrev, sum []float32, alpha, parts, mu float32) int { return 0 }
