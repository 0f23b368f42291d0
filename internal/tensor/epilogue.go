package tensor

// Epilogue is a fused per-element post-pass applied to the GEMM output
// while each cache block is still resident, instead of as separate passes
// over the full matrix. The operation sequence per element is exactly the
// unfused layer chain's — bias add, then eval-mode batch-norm, then ReLU —
// so a fused forward is bit-identical to the unfused one; fusion only
// removes memory traffic (and, via the memory planner, the intermediate
// buffers).
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

// GemmEpi is Gemm with a fused epilogue applied to each output cache block
// as it completes (per-row vectors: rows are conv output channels).
func GemmEpi(alpha float32, a []float32, m, k int, b []float32, n int, beta float32, c []float32, epi *Epilogue) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("tensor: GemmEpi buffer too small")
	}
	gemmBlocked(gemmNN, alpha, a, m, k, b, n, beta, c, epi)
}

// GemmTBEpi is GemmTB with a fused epilogue (use PerColumn for dense layers,
// whose output columns are the units).
func GemmTBEpi(alpha float32, a []float32, m, k int, b []float32, n int, beta float32, c []float32, epi *Epilogue) {
	if len(a) < m*k || len(b) < n*k || len(c) < m*n {
		panic("tensor: GemmTBEpi buffer too small")
	}
	gemmBlocked(gemmTB, alpha, a, m, k, b, n, beta, c, epi)
}
