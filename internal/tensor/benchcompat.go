package tensor

// Names the frozen benchmark module (benchmark/) still compiles against.
// There is one kernel contract since PR 23 — Fast mode and its FMA kernels
// are deleted — so every shim ignores its mode. Nothing in the root module
// may call them (TestBenchCompatUnused); ROADMAP item 6(f) deletes this file.

type KernelMode uint8

const (
	Deterministic KernelMode = iota
	Fast
)

func FMAAvailable() bool { return false }

func GemmMode(_ KernelMode, alpha float32, a []float32, m, k int, b []float32, n int, beta float32, c []float32) {
	Gemm(alpha, a, m, k, b, n, beta, c)
}

func GemmTAMode(_ KernelMode, alpha float32, a []float32, k, m int, b []float32, n int, beta float32, c []float32) {
	GemmTA(alpha, a, k, m, b, n, beta, c)
}

func GemmTBMode(_ KernelMode, alpha float32, a []float32, m, k int, b []float32, n int, beta float32, c []float32) {
	GemmTB(alpha, a, m, k, b, n, beta, c)
}
