// Package tensor provides the dense float32 tensor type and the numeric
// kernels — blocked, register-tiled GEMM with SIMD micro-kernels, batched
// im2col convolution lowering, pooling and element-wise vector ops — that
// the layer library in internal/nn is built on (DESIGN.md §8).
//
// Tensors are row-major and backed by a flat []float32; Arena carves many
// buffers out of one block for the §4.5 memory planner. The package is
// deliberately allocation-conscious: kernels write into caller-provided
// buffers, so steady-state training and serving loops perform no
// per-iteration allocation. Intra-op parallelism comes from a shared,
// bounded worker pool (ParallelFor) sized by a process-wide budget that
// concurrent learners divide between themselves; every kernel partitions
// output ranges disjointly, so results are bit-identical at any worker
// count — the determinism contract DESIGN.md §8 documents and the
// determinism tests pin.
//
// There is one kernel contract (DESIGN.md §14): the GEMM computes every
// element by the scalar rounding sequence (vector MUL then ADD, never FMA,
// one C element per lane, k ascending), so results are bit-identical across
// SIMD levels, machines, and worker counts. It has one tile per ISA level:
// 8×16 on AVX-512 (gemmTileZ: a whole band per call, opmask edges, no edge
// kernels), 4×8 on AVX2, and the Go kernels, which are also the oracle.
// Dispatch is CPUID-gated; CROSSBOW_NOAVX512 and CROSSBOW_NOSIMD each switch
// one level off (gemm_kernel_amd64.go). Epilogue lets internal/nn fuse
// bias/BN/ReLU into the GEMM's output blocks. The exact elementwise kernels
// (ReluFwd, ReluBwd, AddRelu, Add, AccumAdd) are SIMD too — max,
// compare-select and a single add round identically to their scalar loops,
// so they never weaken the contract. The five optimiser kernels (SMACorrectStep,
// SMAContributeStep, SMALocalStep, SMAFold, SMADistFold; DESIGN.md §17)
// extend that family to the multiply-add chains of model averaging: one
// vector multiply, add or subtract per scalar operation in the scalar
// association, no FMA and MXCSR untouched, so they too are bit-identical to
// their scalar loops. The three that own a velocity define its update as
// v ← µ·v − γ·g, then v ← +0 where |v| < 2⁻¹²⁶ (elem_sma.go), so a dead
// unit's velocity cannot park on a subnormal and cost a microcode assist a
// step; no parameter of magnitude ≥ 2⁻¹⁰¹ can see the difference. Max-pooling
// forward (MaxPoolFwd; pool.go) is compare-and-select: a branch-free Go
// loop for any window, and for the 2×2 window 8 or 16 windows a step in
// AVX2 or AVX-512 — the same first-strict-maximum rule, the same y and
// argmax bytes at every level; MaxPoolBwd is one Go clear-and-store loop.
// The batched conv lowering
// (Im2colBatch, Col2imBatch, Lowering; DESIGN.md §18) belongs to the same
// family: with SIMD it replays per-geometry tables — masked plane shifts
// for unit-stride same-grid convs, an index table otherwise — that
// move or sum exactly the elements the span-walking scalar loops do, in
// the same order, and write every element of their output; a Lowering
// addresses input planes by (sample, channel) strides, so one set of
// kernels reads the NCHW network input and internal/nn's channel-major
// activations. On AVX-512 a pass covers a whole channel row of the batch
// under opmask tables periodic in the plane, the index table is a gather,
// and Lowering.GemmConv computes a forward-only conv with x read in place
// of the column matrix, inside the GEMM tile's k loop. The channel-row
// kernels (rows.go; DESIGN.md §8) complete it: batch-norm's four per-channel
// float64 reductions and the conv bias gradient's per-sample float32 sums, SIMD with one channel per lane —
// never positions of one channel across lanes — so each channel's sum is
// the scalar loop's serial chain, bit for bit; their elementwise halves
// (NormRow, NormGradRow) and the 8×8-block Transpose / TransposeAdd the conv
// weight gradient stages through. A row-indexed Epilogue (conv channels) is
// 8-wide too, stage by stage in the scalar order. GEMMs called with
// beta == 0 never read or clear C: the first k panel starts at +0.
package tensor
