package tensor

import "fmt"

// KernelMode selects the compute-kernel contract (DESIGN.md §14).
//
// Deterministic (the default) is the replay oracle: SIMD lanes use MUL then
// ADD (never FMA) so every result is bit-identical to the scalar Go
// reference at any parallelism level, on any machine. Fast trades that
// portability for throughput: GEMM runs on FMA3 micro-kernels with a wider
// 8×8 register tile, validated against the scalar oracle by forward-error
// bounds instead of bit-equality. Fast results are still deterministic
// run-to-run on one machine (per-element accumulation order is fixed and
// independent of the worker count); they differ from Deterministic only in
// rounding, and fall back to the Deterministic kernels bit-for-bit on CPUs
// without FMA3 (or with CROSSBOW_NOFMA=1 set).
type KernelMode uint8

const (
	// Deterministic is the bit-pinned replay mode (MUL+ADD kernels).
	Deterministic KernelMode = iota
	// Fast is the opt-in FMA mode (error-bounded, not bit-portable).
	Fast
)

// String returns "deterministic" or "fast".
func (m KernelMode) String() string {
	if m == Fast {
		return "fast"
	}
	return "deterministic"
}

// ParseKernelMode parses a mode name: "deterministic"/"det"/"" or "fast".
func ParseKernelMode(s string) (KernelMode, error) {
	switch s {
	case "", "deterministic", "det":
		return Deterministic, nil
	case "fast":
		return Fast, nil
	}
	return Deterministic, fmt.Errorf("tensor: unknown kernel mode %q (want deterministic or fast)", s)
}

// FMAAvailable reports whether the FMA3 micro-kernels will actually run
// in Fast mode on this machine (amd64 with FMA3+AVX2, not disabled by
// CROSSBOW_NOSIMD/CROSSBOW_NOFMA). When false, Fast mode computes with the
// Deterministic kernels, bit-for-bit.
func FMAAvailable() bool { return fmaActive() }

// Epilogue is a fused per-element post-pass applied to the GEMM output
// while each cache block is still resident, instead of as separate passes
// over the full matrix. The operation sequence per element is exactly the
// unfused layer chain's — bias add, then eval-mode batch-norm, then ReLU —
// so a fused forward is bit-identical to the unfused one under either
// kernel mode; fusion only removes memory traffic (and, via the memory
// planner, the intermediate buffers).
//
// Vectors are indexed by output row (GemmEpi: conv channels), or by output
// column when PerColumn is set (GemmTBEpi: dense units). Nil slices skip
// that stage; Gamma/Beta/Mean/InvStd must be all nil or all set.
type Epilogue struct {
	Bias      []float32 // v += Bias[i]
	Gamma     []float32 // v = Gamma[i]*((v-Mean[i])*InvStd[i]) + Beta[i]
	Beta      []float32
	Mean      []float32
	InvStd    []float32
	ReLU      bool // v = max(0, v), NaN -> 0, matching the ReLU layer
	PerColumn bool // index the vectors by column instead of row
}

// ApplyEpilogue runs the epilogue over a full row-major m×n matrix. The
// blocked GEMM drivers apply epilogues per cache block; this entry point is
// for paths that produce C some other way (e.g. the int8 forward).
func ApplyEpilogue(epi *Epilogue, c []float32, m, n int) {
	if epi != nil {
		applyEpi(epi, c, n, 0, m, 0, n)
	}
}

// applyEpi applies epi to C[rowLo:rowHi, colLo:colHi] (row stride ldc).
func applyEpi(epi *Epilogue, c []float32, ldc, rowLo, rowHi, colLo, colHi int) {
	bn := epi.Gamma != nil
	if epi.PerColumn {
		for i := rowLo; i < rowHi; i++ {
			row := c[i*ldc+colLo : i*ldc+colHi]
			for j := range row {
				v := row[j]
				jj := colLo + j
				if epi.Bias != nil {
					v += epi.Bias[jj]
				}
				if bn {
					v = epi.Gamma[jj]*((v-epi.Mean[jj])*epi.InvStd[jj]) + epi.Beta[jj]
				}
				if epi.ReLU && !(v > 0) {
					v = 0
				}
				row[j] = v
			}
		}
		return
	}
	hasBias := epi.Bias != nil
	stages := 0 // the assembly's stage mask
	if hasBias {
		stages |= 1
	}
	if bn {
		stages |= 2
	}
	if epi.ReLU {
		stages |= 4
	}
	for i := rowLo; i < rowHi; i++ {
		row := c[i*ldc+colLo : i*ldc+colHi]
		var bias, g, bt, mn, is float32
		if hasBias {
			bias = epi.Bias[i]
		}
		if bn {
			g, bt, mn, is = epi.Gamma[i], epi.Beta[i], epi.Mean[i], epi.InvStd[i]
		}
		// Whole vectors in assembly (the stages in the same order, exact
		// elementwise operations, so the split point never shows), the
		// tail — or everything, with SIMD off — here.
		row = row[elemEpiRowASM(row, bias, g, bt, mn, is, stages):]
		for j, v := range row {
			if hasBias {
				v += bias
			}
			if bn {
				v = g*((v-mn)*is) + bt
			}
			if epi.ReLU && !(v > 0) {
				v = 0
			}
			row[j] = v
		}
	}
}

// GemmMode is Gemm under an explicit kernel mode: Deterministic routes to
// the bit-pinned blocked kernels, Fast to the FMA micro-kernels (when the
// CPU has them — otherwise it falls back to the Deterministic kernels,
// bit-for-bit).
func GemmMode(mode KernelMode, alpha float32, a []float32, m, k int, b []float32, n int, beta float32, c []float32) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("tensor: GemmMode buffer too small")
	}
	gemmDispatch(gemmNN, mode, alpha, a, m, k, b, n, beta, c, nil)
}

// GemmTAMode is GemmTA under an explicit kernel mode.
func GemmTAMode(mode KernelMode, alpha float32, a []float32, k, m int, b []float32, n int, beta float32, c []float32) {
	if len(a) < k*m || len(b) < k*n || len(c) < m*n {
		panic("tensor: GemmTAMode buffer too small")
	}
	gemmDispatch(gemmTA, mode, alpha, a, m, k, b, n, beta, c, nil)
}

// GemmTBMode is GemmTB under an explicit kernel mode. Note Fast mode uses
// preload association (alpha folded into the packed A panel) rather than
// GemmTB's per-panel alpha, so its rounding differs from the Deterministic
// path within the standard forward-error bound.
func GemmTBMode(mode KernelMode, alpha float32, a []float32, m, k int, b []float32, n int, beta float32, c []float32) {
	if len(a) < m*k || len(b) < n*k || len(c) < m*n {
		panic("tensor: GemmTBMode buffer too small")
	}
	gemmDispatch(gemmTB, mode, alpha, a, m, k, b, n, beta, c, nil)
}

// GemmEpi is GemmMode with a fused epilogue applied to each output cache
// block as it completes (per-row vectors: rows are conv output channels).
func GemmEpi(mode KernelMode, alpha float32, a []float32, m, k int, b []float32, n int, beta float32, c []float32, epi *Epilogue) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("tensor: GemmEpi buffer too small")
	}
	gemmDispatch(gemmNN, mode, alpha, a, m, k, b, n, beta, c, epi)
}

// GemmTBEpi is GemmTBMode with a fused epilogue (use PerColumn for dense
// layers, whose output columns are the units).
func GemmTBEpi(mode KernelMode, alpha float32, a []float32, m, k int, b []float32, n int, beta float32, c []float32, epi *Epilogue) {
	if len(a) < m*k || len(b) < n*k || len(c) < m*n {
		panic("tensor: GemmTBEpi buffer too small")
	}
	gemmDispatch(gemmTB, mode, alpha, a, m, k, b, n, beta, c, epi)
}

// fastMinFlops is the 2·m·k·n floor below which Fast mode falls back to
// the deterministic kernels: at tiny shapes (classifier heads, per-class
// gradients) the FMA micro-kernels' packing overhead exceeds the
// multiply-add work and the blocked path is measurably faster. The
// demotion depends only on the operand shape, so Fast mode stays
// run-to-run reproducible on a fixed machine.
const fastMinFlops = 32 << 10

func gemmDispatch(kind gemmKind, mode KernelMode, alpha float32, a []float32, m, k int, b []float32, n int, beta float32, c []float32, epi *Epilogue) {
	if mode == Fast && fmaActive() && 2*m*k*n >= fastMinFlops {
		gemmFast(kind, alpha, a, m, k, b, n, beta, c, epi)
		return
	}
	gemmBlocked(kind, alpha, a, m, k, b, n, beta, c, epi)
}
