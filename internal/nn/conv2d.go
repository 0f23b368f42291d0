package nn

import (
	"math"

	"crossbow/internal/tensor"
)

// Conv2D is a 2-D convolution over channel-major activations with OIHW
// filters, lowered to GEMM via batched im2col: the whole mini-batch is
// expanded into one ColRows × batch·S column matrix and each pass (forward,
// weight gradient, input gradient) runs a single large GEMM per layer
// instead of batch small ones. Padding and stride are symmetric per axis.
//
// The activation layout is the GEMMs' own: the forward GEMM W · col writes
// the layer's output y (OutC × batch·S) itself, with the bias — and, fused
// for inference, batch-norm and ReLU — as its epilogue; in backward dY is
// the input-gradient GEMM's operand as it arrives. Only the weight gradient
// stages anything: dYᵀ (packT) and the transposed product (gwT), so that
// both of its operands stream; both are plain transposes.
//
// A forward-only pass (train false: Predict, Evaluate, serving) of a
// same-grid geometry does not materialise col at all where the host has the
// kernels for it: the GEMM reads its B operand from x through the lowering's
// shift tables (tensor.Lowering.GemmConv, bit-identical), and the inference
// plan does not declare col. Training forwards keep col — the weight gradient
// reads it again.
//
// The batched lowering keeps the forward activations, input gradients and
// bias gradients bit-identical to the per-sample reference path (each output
// element's dot product runs in the same order, each channel's bias sum
// folds the same per-sample partial sums in sample order); only the weight
// gradient sums the batch in one accumulation instead of batch partial sums,
// which regroups the reduction — see DESIGN.md §8 and
// TestConv2DBatchedMatchesReference.
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

	// netIn marks a network's first layer (Builder.Build sets it): its input
	// is the NCHW batch the data pipeline or the serving batcher staged —
	// read through the lowering's two plane strides, the only place the
	// layer library sees that layout — and nothing consumes the gradient of
	// the network input, so Backward stops after the parameter gradients.
	netIn bool

	w, b   []float32
	gw, gb []float32

	in []int // the input's batched shape
	x  *tensor.Tensor
	y  *tensor.Tensor
	dx *tensor.Tensor

	// Reusable batched scratch, planned for the layer's batch size: col/dcol
	// hold the ColRows × batch·S column matrices. col still holds im2col(x)
	// from Forward when Backward runs, so the weight-gradient pass never
	// recomputes it.
	col      []float32
	dcol     []float32
	packT    []float32 // batch·S × OutC: dYᵀ, the weight-grad GEMM's B operand
	gwT      []float32 // ColRows × OutC: the transposed weight-grad product
	colFresh bool      // col currently holds im2col of c.x

	// viaCol keeps the column matrix in forward-only passes too; tests set
	// it to compare the two forwards.
	viaCol bool

	// epi is the forward GEMM's epilogue: always the bias; after
	// Network.FuseInference also the following BN/ReLU, applied while the
	// output block is cache-hot. The parameter views (fusedBN's too) are
	// re-read every forward, so Bind and model hot-swaps stay correct.
	epi     tensor.Epilogue
	fusedBN *BatchNorm
	epiInv  []float32 // OutC per-channel 1/sqrt(runVar+eps) scratch

	pbIn, pbCol, pbPackT, pbGwT, pbDcol, pbY, pbDx *plannedBuf
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
	in := actShape(batch, inShape)
	return &Conv2D{
		Geom:  g,
		batch: batch,
		in:    in,
		y:     tensor.NewShell(outC, batch, g.OutH(), g.OutW()),
		dx:    tensor.NewShell(in...),
	}
}

// readNetInput makes c a network's first layer (see netIn).
func (c *Conv2D) readNetInput() {
	c.netIn = true
	c.in = []int{c.batch, c.Geom.InC, c.Geom.InH, c.Geom.InW}
	c.dx = nil
}

// inStrides returns the (sample, channel) strides of the input's planes.
func (c *Conv2D) inStrides() (sn, sc int) {
	plane := c.Geom.InH * c.Geom.InW
	if c.netIn {
		return c.Geom.InVol(), plane
	}
	return plane, c.batch * plane
}

// colFree reports whether a forward-only pass runs without the column
// matrix: a geometry and batch the host has the kernels for
// (tensor.DirectConv).
func (c *Conv2D) colFree() bool {
	return !c.viaCol && tensor.DirectConv(c.Geom, c.batch)
}

// ensure lazily allocates private buffers for standalone (arena-less) use.
func (c *Conv2D) ensure() {
	if c.y.HasData() {
		return
	}
	g := c.Geom
	ns := c.batch * g.ColCols()
	c.col = make([]float32, g.ColRows()*ns)
	c.packT = make([]float32, ns*g.OutC)
	c.gwT = make([]float32, g.ColRows()*g.OutC)
	c.y.SetData(make([]float32, tensor.Volume(c.y.Shape())))
	if !c.netIn {
		c.dcol = make([]float32, g.ColRows()*ns)
		c.dx.SetData(make([]float32, tensor.Volume(c.dx.Shape())))
	}
}

func (c *Conv2D) planFwd(p *taskPlanner, in *plannedBuf) *plannedBuf {
	g := c.Geom
	c.pbIn = in
	if p.infer && c.colFree() {
		// The forward GEMM (and its epilogue) writes y, reading x in place.
		c.pbY = p.shell("conv.y", c.y, bufActivation)
		p.touch(in)
		return c.pbY
	}
	// im2col writes col, reading x.
	c.pbCol = p.slice("conv.col", &c.col, g.ColRows()*c.batch*g.ColCols(), bufActivation)
	p.touch(in)
	// The forward GEMM (and its epilogue) writes y, reading col.
	c.pbY = p.shell("conv.y", c.y, bufActivation)
	p.touch(c.pbCol)
	return c.pbY
}

func (c *Conv2D) planBwd(p *taskPlanner, dout *plannedBuf) *plannedBuf {
	g := c.Geom
	ns := c.batch * g.ColCols()
	// Sub-op rule (see memory.go): declare an op's outputs before touching
	// its inputs, so an input's lifetime overlaps every output's and the
	// planner can never overlay them.
	p.touch(dout) // bias gradient reads dY
	// The transpose writes packT while reading dY.
	c.pbPackT = p.slice("conv.packT", &c.packT, ns*g.OutC, bufScratch)
	p.touch(dout)
	// Weight-grad GEMM writes gwT reading col and packT; a stale col would
	// re-read x first (shared-layer safety).
	c.pbGwT = p.slice("conv.gwT", &c.gwT, g.ColRows()*g.OutC, bufScratch)
	p.touch(c.pbIn)
	p.touch(c.pbCol, c.pbPackT)
	p.touch(c.pbGwT) // transposed accumulate into gw reads gwT
	if c.netIn {
		return nil
	}
	// Input-grad GEMM writes dcol reading dY (and w).
	c.pbDcol = p.slice("conv.dcol", &c.dcol, g.ColRows()*ns, bufScratch)
	p.touch(dout)
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

// fuse absorbs the given BN (may be nil) and trailing ReLU into this
// layer's GEMM epilogue. y's rows are output channels, so the epilogue
// indexes its vectors by row.
func (c *Conv2D) fuse(bn *BatchNorm, relu bool) {
	c.fusedBN = bn
	c.epi.ReLU = relu
	if bn != nil {
		c.epiInv = make([]float32, c.Geom.OutC)
	}
}

// refreshEpi re-reads the epilogue's parameter views, which Bind re-slices.
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

func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	g := c.Geom
	checkIn("conv2d", x, c.in)
	c.ensure()
	if c.lower == nil {
		c.lower = tensor.LoweringFor(g)
	}
	c.x = x
	ns := c.batch * g.ColCols()
	yd := c.y.Data()
	sn, sc := c.inStrides()
	c.refreshEpi()
	if !train && c.colFree() {
		// Forward-only: the same product with x read in place of col.
		c.colFresh = false
		c.lower.GemmConv(c.w, c.batch, x.Data(), sn, sc, yd, &c.epi)
		return c.y
	}
	// One batched lowering + one GEMM for the whole mini-batch:
	// y(OutC × NS) = W(OutC × ColRows) · col(ColRows × NS), then the
	// epilogue, block by block as the GEMM completes them.
	c.lower.Im2colBatch(c.batch, x.Data(), sn, sc, c.col)
	c.colFresh = true
	tensor.GemmEpi(1, c.w, g.OutC, g.ColRows(), c.col, ns, 0, yd, &c.epi)
	return c.y
}

func (c *Conv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	g := c.Geom
	s := g.ColCols()
	ns := c.batch * s
	dyd := dy.Data()
	// Bias gradient: per channel, one partial sum per sample, folded in
	// sample order (the per-sample reference's accumulation order exactly).
	tensor.RowSegSums32(c.gb, dyd, g.OutC, c.batch, s)
	// Weight gradient: dW(OutC × ColRows) += dY(OutC × NS) · colᵀ. The
	// forward pass already lowered x into col; recompute only if another
	// forward ran since (shared-layer safety). The GEMM runs transposed —
	// gwT(ColRows × OutC) = col · dYᵀ with dYᵀ staged as packT — so both
	// operands stream directly (no panel packing); the transposed add into
	// gw performs the same single `+= Σ` per element, so bits match the
	// direct formulation.
	tensor.Transpose(c.packT, dyd, g.OutC, ns)
	if !c.colFresh {
		sn, sc := c.inStrides()
		c.lower.Im2colBatch(c.batch, c.x.Data(), sn, sc, c.col)
	}
	c.colFresh = false
	tensor.Gemm(1, c.col, g.ColRows(), ns, c.packT, g.OutC, 0, c.gwT)
	tensor.TransposeAdd(c.gw, c.gwT, g.ColRows(), g.OutC)
	if c.netIn {
		return nil
	}
	// Input gradient: dcol(ColRows × NS) = Wᵀ · dY, then gather per sample.
	tensor.GemmTA(1, c.w, g.OutC, g.ColRows(), dyd, ns, 0, c.dcol)
	sn, sc := c.inStrides()
	c.lower.Col2imBatch(c.batch, c.dcol, c.dx.Data(), sn, sc)
	return c.dx
}
