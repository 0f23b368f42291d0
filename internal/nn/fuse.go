package nn

// Inference operator fusion (DESIGN.md §14).
//
// FuseInference rewrites the stack for forward-only execution: every
// conv→BN→ReLU (and dense→ReLU) run collapses into the leading GEMM's
// epilogue, applied while the output slab is still cache-resident. The
// absorbed layers become identity pass-throughs and declare no buffers, so
// the inference walk's footprint shrinks with them. The epilogue performs
// the exact per-element operation sequence of the unfused chain (bias add,
// eval-mode BN, ReLU), so fusion is a pure memory/locality optimisation —
// results are bit-identical, which TestFusedPredictBitIdentical and
// TestGoldenCRCs pin. A fused network is inference-only: training walks
// panic.

// FuseInference absorbs conv→BN→ReLU and dense→ReLU chains into GEMM
// epilogues for forward-only execution. It must run before the first
// memory-planning walk (the plans reflect the fused dataflow), and it
// makes the network inference-only. Idempotent.
func (n *Network) FuseInference() {
	if n.fused {
		return
	}
	if n.memPlan != nil || n.inferPlan != nil {
		panic("nn: FuseInference after memory planning")
	}
	n.fused = true
	fuseChain(n.layers)
}

// fuseChain absorbs fusible runs within one sequential layer list. A
// residual branch ends the same way (its trailing BN fuses into the last
// conv; the join's own add+ReLU stays in the join kernel).
func fuseChain(ls []Layer) {
	for i := 0; i < len(ls); i++ {
		switch l := ls[i].(type) {
		case *Residual:
			fuseChain(l.branch)
			fuseChain(l.shortcut)
		case *Conv2D:
			var bn *BatchNorm
			j := i + 1
			if j < len(ls) {
				if b, ok := ls[j].(*BatchNorm); ok {
					bn = b
					j++
				}
			}
			var relu *ReLU
			if j < len(ls) {
				if r, ok := ls[j].(*ReLU); ok {
					relu = r
					j++
				}
			}
			l.fuse(bn, relu != nil)
			if bn != nil {
				bn.absorbed = true
			}
			if relu != nil {
				relu.absorbed = true
			}
			i = j - 1
		case *Dense:
			var relu *ReLU
			if i+1 < len(ls) {
				if r, ok := ls[i+1].(*ReLU); ok {
					relu = r
				}
			}
			l.fuse(relu != nil)
			if relu != nil {
				relu.absorbed = true
				i++
			}
		}
	}
}
