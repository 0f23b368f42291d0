package nn

import (
	"math"

	"crossbow/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW inputs with OIHW filters, lowered to
// GEMM via batched im2col: the whole mini-batch is expanded into one
// ColRows × batch·S column matrix and each pass (forward, weight gradient,
// input gradient) runs a single large GEMM per layer instead of batch small
// ones. Padding and stride are symmetric per axis.
//
// The batched lowering keeps the forward activations, input gradients and
// bias gradients bit-identical to the per-sample reference path (each output
// element's dot product runs in the same order); only the weight gradient
// sums the batch in one accumulation instead of batch partial sums, which
// regroups the reduction — see DESIGN.md §8 and TestConv2DBatchedMatchesReference.
//
// Buffers are declared to the memory planner, not allocated here: a network
// attaches them to slices of one planned arena (memory.go), and standalone
// layers fall back to private allocation on first use. The lowering writes
// every element of col, padding zeros included, so col is planned like any
// other buffer and needs nothing from the arena it lands in.
type Conv2D struct {
	Geom  tensor.ConvGeom
	batch int
	// lower is Geom's table-driven lowering, resolved on the first Forward
	// (plan-only networks never pay for tables) and held so the hot path
	// does no lookup.
	lower *tensor.Lowering

	w, b   []float32
	gw, gb []float32

	x  *tensor.Tensor
	y  *tensor.Tensor
	dx *tensor.Tensor

	// Reusable batched scratch, planned for the layer's batch size: col/dcol
	// hold the ColRows × batch·S column matrices, pack stages the
	// OutC × batch·S GEMM operand (forward output, then dY in backward).
	// col still holds im2col(x) from Forward when Backward runs, so the
	// weight-gradient pass never recomputes it.
	col      []float32
	dcol     []float32
	pack     []float32 // OutC × NS staging (forward output / dY for the input grad)
	packT    []float32 // NS × OutC staging of dY for the weight-grad GEMM
	gwT      []float32 // ColRows × OutC staging for the transposed weight-grad GEMM
	colFresh bool      // col currently holds im2col of c.x

	mode tensor.KernelMode // GEMM kernel mode (Network.SetKernelMode)

	// Inference fusion (Network.FuseInference): the following BN/ReLU are
	// absorbed into a GEMM epilogue applied to pack while it is cache-hot;
	// the bias moves from un-staging into the epilogue. fusedBN's parameter
	// views are re-read every forward, so model hot-swaps stay correct.
	epi     *tensor.Epilogue
	fusedBN *BatchNorm
	epiInv  []float32 // OutC per-channel 1/sqrt(runVar+eps) scratch

	// Quantized inference (Network.QuantizeWeights): int8 weights with
	// symmetric per-output-channel scales, activations quantized per tensor
	// at run time, exact int32 accumulation (DESIGN.md §14).
	qw      []int8
	qscales []float32
	qcol    []int8
	qacc    []int32

	// Hoisted kernel-loop closures (one allocation at construction instead
	// of one per Forward/Backward call); dyd feeds the backward stage loop.
	fwdLoop func(lo, hi int)
	bwdLoop func(lo, hi int)
	dyd     []float32

	pbIn, pbCol, pbPack, pbPackT, pbGwT, pbDcol, pbY, pbDx *plannedBuf
}

// NewConv2D constructs a convolution layer. inShape is [C, H, W]. No
// activation or scratch memory is allocated here — buffers are declared to
// the network's memory planner (or lazily self-allocated on standalone use).
func NewConv2D(batch int, inShape []int, outC, k, stride, pad int) *Conv2D {
	g := tensor.ConvGeom{
		InC: inShape[0], InH: inShape[1], InW: inShape[2],
		OutC: outC, KH: k, KW: k,
		StrideH: stride, StrideW: stride,
		PadH: pad, PadW: pad,
	}
	c := &Conv2D{
		Geom:  g,
		batch: batch,
		y:     tensor.NewShell(batch, outC, g.OutH(), g.OutW()),
		dx:    tensor.NewShell(batch, g.InC, g.InH, g.InW),
	}
	c.fwdLoop = c.unstageChunk
	c.bwdLoop = c.stageChunk
	return c
}

// ensure lazily allocates private buffers for standalone (arena-less) use.
func (c *Conv2D) ensure() {
	if c.col != nil {
		return
	}
	g := c.Geom
	ns := c.batch * g.ColCols()
	c.col = make([]float32, g.ColRows()*ns)
	c.dcol = make([]float32, g.ColRows()*ns)
	c.pack = make([]float32, g.OutC*ns)
	c.packT = make([]float32, ns*g.OutC)
	c.gwT = make([]float32, g.ColRows()*g.OutC)
	c.y.SetData(make([]float32, tensor.Volume(c.y.Shape())))
	c.dx.SetData(make([]float32, tensor.Volume(c.dx.Shape())))
}

func (c *Conv2D) planFwd(p *taskPlanner, in *plannedBuf) *plannedBuf {
	g := c.Geom
	ns := c.batch * g.ColCols()
	c.pbIn = in
	// im2col writes col, reading x.
	c.pbCol = p.slice("conv.col", &c.col, g.ColRows()*ns, bufActivation)
	p.touch(in)
	// Forward GEMM reads col, writes pack.
	c.pbPack = p.slice("conv.pack", &c.pack, g.OutC*ns, bufScratch)
	p.touch(c.pbCol)
	// Un-staging reads pack, writes y.
	c.pbY = p.shell("conv.y", c.y, bufActivation)
	p.touch(c.pbPack)
	return c.pbY
}

func (c *Conv2D) planBwd(p *taskPlanner, dout *plannedBuf) *plannedBuf {
	g := c.Geom
	ns := c.batch * g.ColCols()
	// Sub-op rule (see memory.go): declare an op's outputs before touching
	// its inputs, so an input's lifetime overlaps every output's and the
	// planner can never overlay them.
	p.touch(dout) // bias gradient reads dY
	// Staging writes packT (and rewrites pack) while reading dY.
	c.pbPackT = p.slice("conv.packT", &c.packT, ns*g.OutC, bufScratch)
	p.touch(dout, c.pbPack)
	// Weight-grad GEMM writes gwT reading col and packT; a stale col would
	// re-read x first (shared-layer safety).
	c.pbGwT = p.slice("conv.gwT", &c.gwT, g.ColRows()*g.OutC, bufScratch)
	p.touch(c.pbIn)
	p.touch(c.pbCol, c.pbPackT)
	p.touch(c.pbGwT) // transposed accumulate into gw reads gwT
	// Input-grad GEMM writes dcol reading pack (and w).
	c.pbDcol = p.slice("conv.dcol", &c.dcol, g.ColRows()*ns, bufScratch)
	p.touch(c.pbPack)
	// col2im writes dx reading dcol.
	c.pbDx = p.shell("conv.dx", c.dx, bufGradient)
	p.touch(c.pbDcol)
	return c.pbDx
}

func (c *Conv2D) Name() string { return "conv2d" }

func (c *Conv2D) OutShape() []int {
	return []int{c.Geom.OutC, c.Geom.OutH(), c.Geom.OutW()}
}

func (c *Conv2D) NumParams() int {
	g := c.Geom
	return g.OutC*g.InC*g.KH*g.KW + g.OutC
}

func (c *Conv2D) Bind(w, g []float32) {
	nw := c.Geom.OutC * c.Geom.InC * c.Geom.KH * c.Geom.KW
	c.w, c.b = w[:nw], w[nw:nw+c.Geom.OutC]
	c.gw, c.gb = g[:nw], g[nw:nw+c.Geom.OutC]
}

func (c *Conv2D) InitParams(r *tensor.RNG, w []float32) {
	nw := c.Geom.OutC * c.Geom.InC * c.Geom.KH * c.Geom.KW
	fanIn := c.Geom.InC * c.Geom.KH * c.Geom.KW
	tensor.InitHe(r, w[:nw], fanIn)
	tensor.InitConst(w[nw:nw+c.Geom.OutC], 0)
}

// unstageChunk copies pack rows [lo, hi) of the batch into NCHW order and
// adds the bias (the forward un-staging loop). When the layer is fused the
// bias (and BN/ReLU) were already applied to pack by the GEMM epilogue, so
// un-staging degenerates to a pure copy.
func (c *Conv2D) unstageChunk(lo, hi int) {
	g := c.Geom
	s := g.ColCols()
	ns := c.batch * s
	outVol := g.OutC * s
	yd := c.y.Data()
	for n := lo; n < hi; n++ {
		for oc := 0; oc < g.OutC; oc++ {
			src := c.pack[oc*ns+n*s : oc*ns+n*s+s]
			dst := yd[n*outVol+oc*s : n*outVol+oc*s+s]
			if c.epi != nil {
				copy(dst, src)
				continue
			}
			bias := c.b[oc]
			for i, v := range src {
				dst[i] = v + bias
			}
		}
	}
}

// fuse absorbs the given BN (may be nil) and trailing ReLU into this
// layer's GEMM epilogue. pack's rows are output channels, so the epilogue
// indexes its vectors by row; the parameter views are refreshed every
// forward (refreshEpi) because Bind re-slices them.
func (c *Conv2D) fuse(bn *BatchNorm, relu bool) {
	c.fusedBN = bn
	c.epi = &tensor.Epilogue{ReLU: relu}
	if bn != nil {
		c.epiInv = make([]float32, c.Geom.OutC)
	}
}

func (c *Conv2D) refreshEpi() {
	c.epi.Bias = c.b
	if bn := c.fusedBN; bn != nil {
		c.epi.Gamma = bn.gamma
		c.epi.Beta = bn.beta
		c.epi.Mean = bn.runMean
		for i := range c.epiInv {
			c.epiInv[i] = 1 / float32(math.Sqrt(float64(bn.runVar[i])+float64(bn.Eps)))
		}
		c.epi.InvStd = c.epiInv
	}
}

func (c *Conv2D) setKernelMode(m tensor.KernelMode) { c.mode = m }

// quantize (re)builds the int8 weight copy and its per-output-channel
// scales from the currently bound parameters, enabling the quantized
// forward path. Call again after a model hot-swap.
func (c *Conv2D) quantize() {
	g := c.Geom
	rows := g.ColRows()
	if c.qw == nil {
		c.qw = make([]int8, g.OutC*rows)
		c.qscales = make([]float32, g.OutC)
		c.qcol = make([]int8, rows*c.batch*g.ColCols())
		c.qacc = make([]int32, g.OutC*c.batch*g.ColCols())
	}
	tensor.QuantizeRows(c.w, g.OutC, rows, c.qw, c.qscales)
}

func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	g := c.Geom
	checkIn("conv2d", x, c.batch, []int{g.InC, g.InH, g.InW})
	c.ensure()
	if c.lower == nil {
		c.lower = tensor.LoweringFor(g)
	}
	c.x = x
	s := g.ColCols()
	ns := c.batch * s
	outVol := g.OutC * s
	// One batched lowering + one GEMM for the whole mini-batch:
	// pack(OutC × NS) = W(OutC × ColRows) · col(ColRows × NS).
	c.lower.Im2colBatch(c.batch, x.Data(), c.col)
	c.colFresh = true
	if c.epi != nil {
		c.refreshEpi()
	}
	switch {
	case c.qw != nil && !train:
		// Quantized path: int8·int8 → exact int32, dequantized into pack
		// (per-channel weight scale × per-tensor activation scale), fused
		// epilogue applied as a separate cache-warm pass.
		rows := g.ColRows()
		sx := tensor.QuantizeSym(c.col[:rows*ns], c.qcol)
		tensor.GemmInt8(c.qw, g.OutC, rows, c.qcol, ns, c.qacc)
		for oc := 0; oc < g.OutC; oc++ {
			s := c.qscales[oc] * sx
			row := c.pack[oc*ns : (oc+1)*ns]
			acc := c.qacc[oc*ns : (oc+1)*ns]
			for i, v := range acc {
				row[i] = float32(v) * s
			}
		}
		if c.epi != nil {
			tensor.ApplyEpilogue(c.epi, c.pack, g.OutC, ns)
		}
	case c.epi != nil:
		tensor.GemmEpi(c.mode, 1, c.w, g.OutC, g.ColRows(), c.col, ns, 0, c.pack, c.epi)
	default:
		tensor.GemmMode(c.mode, 1, c.w, g.OutC, g.ColRows(), c.col, ns, 0, c.pack)
	}
	// Un-stage into NCHW (adding the bias on the unfused path).
	tensor.ParallelFor(c.batch, 1+(1<<14)/max(1, outVol), c.fwdLoop)
	return c.y
}

// stageChunk stages dY rows [lo, hi) of the batch into pack (OutC × NS, for
// the input-grad GEMM) and packT (NS × OutC, for the weight-grad GEMM).
func (c *Conv2D) stageChunk(lo, hi int) {
	g := c.Geom
	s := g.ColCols()
	ns := c.batch * s
	outVol := g.OutC * s
	dyd := c.dyd
	for n := lo; n < hi; n++ {
		for oc := 0; oc < g.OutC; oc++ {
			dst := c.pack[oc*ns+n*s : oc*ns+n*s+s]
			src := dyd[n*outVol+oc*s : n*outVol+oc*s+s]
			if s < 16 {
				for i := range dst {
					dst[i] = src[i]
				}
			} else {
				copy(dst, src)
			}
			ti := (n*s)*g.OutC + oc
			for i := range src {
				c.packT[ti] = src[i]
				ti += g.OutC
			}
		}
	}
}

func (c *Conv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	g := c.Geom
	s := g.ColCols()
	ns := c.batch * s
	outVol := g.OutC * s
	dyd := dy.Data()
	// Bias gradient: per-channel sums, samples in order (matches the
	// per-sample reference accumulation order exactly).
	for n := 0; n < c.batch; n++ {
		for oc := 0; oc < g.OutC; oc++ {
			row := dyd[n*outVol+oc*s : n*outVol+oc*s+s]
			var sum float32
			for _, v := range row {
				sum += v
			}
			c.gb[oc] += sum
		}
	}
	// Stage dY twice: pack (OutC × NS) feeds the input-grad GEMM, packT
	// (NS × OutC) feeds the weight-grad GEMM as a directly streamable
	// row-major operand.
	c.dyd = dyd
	tensor.ParallelFor(c.batch, 1+(1<<14)/max(1, outVol), c.bwdLoop)
	// Weight gradient: dW(OutC × ColRows) += dY(OutC × NS) · colᵀ. The
	// forward pass already lowered x into col; recompute only if another
	// forward ran since (shared-layer safety). The GEMM runs transposed —
	// gwT(ColRows × OutC) = col · dYᵀ with dYᵀ staged as packT — so both
	// operands stream directly (no panel packing); the transposed add into
	// gw performs the same single `+= Σ` per element, so bits match the
	// direct formulation.
	if !c.colFresh {
		c.lower.Im2colBatch(c.batch, c.x.Data(), c.col)
	}
	c.colFresh = false
	tensor.GemmMode(c.mode, 1, c.col, g.ColRows(), ns, c.packT, g.OutC, 0, c.gwT)
	for oc := 0; oc < g.OutC; oc++ {
		grow := c.gw[oc*g.ColRows() : (oc+1)*g.ColRows()]
		for r := range grow {
			grow[r] += c.gwT[r*g.OutC+oc]
		}
	}
	// Input gradient: dcol(ColRows × NS) = Wᵀ · dY, then scatter per sample.
	tensor.GemmTAMode(c.mode, 1, c.w, g.OutC, g.ColRows(), c.pack, ns, 0, c.dcol)
	c.lower.Col2imBatch(c.batch, c.dcol, c.dx.Data())
	return c.dx
}
