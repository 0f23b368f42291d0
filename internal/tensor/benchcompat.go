package tensor

import "sync/atomic"

// Names the frozen benchmark module (benchmark/) still compiles against.
// There is one kernel contract — Fast mode and its FMA kernels are deleted —
// so every shim ignores its mode. Nothing in the root module may call them
// (TestBenchCompatUnused), so the file goes once the benchmark stops calling
// them.

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

// parFloor is a floor under the count ParallelFor divides the budget by;
// 0 and 1 mean none.
var parFloor atomic.Int32

// SetActiveLearners sets the floor to k (k < 1 selects 1) and returns the
// previous one. The benchmark's traced run and probes declare their learner
// count with it, so a probe with no task in flight still measures one
// learner's share of the budget.
func SetActiveLearners(k int) (prev int) {
	return int(parFloor.Swap(int32(max(k, 1))))
}
