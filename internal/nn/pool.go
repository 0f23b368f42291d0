package nn

import "crossbow/internal/tensor"

// MaxPool is a 2-D max pooling layer with square window and stride equal to
// the window size (the configuration the benchmark models use). It works
// plane by plane, so the channel-major layout only decides the order the
// C·batch planes are visited in; the kernels and the rule they implement —
// first strict maximum in (kh, kw) order — are tensor.MaxPoolFwd/Bwd.
type MaxPool struct {
	stateless
	K             int
	batch         int
	inC, inH, inW int
	outH, outW    int

	// argmax is the flat input index of each output's max (planned as
	// float32 storage); only a training forward writes it.
	argmax []int32
	y      *tensor.Tensor
	dx     *tensor.Tensor

	fwdLoop func(lo, hi int)
	bwdLoop func(lo, hi int)
	xd, dyd []float32
	train   bool

	pbArg, pbY, pbDx *plannedBuf
}

// NewMaxPool constructs a max-pool layer with window and stride k.
func NewMaxPool(batch int, inShape []int, k int) *MaxPool {
	c, h, w := inShape[0], inShape[1], inShape[2]
	oh, ow := h/k, w/k
	p := &MaxPool{
		K: k, batch: batch, inC: c, inH: h, inW: w, outH: oh, outW: ow,
		y:  tensor.NewShell(c, batch, oh, ow),
		dx: tensor.NewShell(c, batch, h, w),
	}
	p.fwdLoop = p.forwardChunk
	p.bwdLoop = p.backwardChunk
	return p
}

func (p *MaxPool) ensure() {
	if p.argmax != nil {
		return
	}
	p.argmax = make([]int32, p.batch*p.inC*p.outH*p.outW)
	p.y.SetData(make([]float32, tensor.Volume(p.y.Shape())))
	p.dx.SetData(make([]float32, tensor.Volume(p.dx.Shape())))
}

func (p *MaxPool) planFwd(pl *taskPlanner, in *plannedBuf) *plannedBuf {
	// argmax is written interleaved with y, so the closing touch keeps the
	// two mutually live (memory.go's sub-op rule — siblings of one kernel
	// step must not share slots). The forward-only plan declares it too,
	// though that pass writes none: without it the slot model plans a fused
	// LeNet larger than an unfused one (TestFusedInferPlanSmaller).
	p.pbArg = pl.int32s("maxpool.argmax", &p.argmax, p.batch*p.inC*p.outH*p.outW, bufActivation)
	p.pbY = pl.shell("maxpool.y", p.y, bufActivation)
	pl.touch(in, p.pbArg)
	return p.pbY
}

func (p *MaxPool) planBwd(pl *taskPlanner, dout *plannedBuf) *plannedBuf {
	p.pbDx = pl.shell("maxpool.dx", p.dx, bufGradient)
	pl.touch(dout, p.pbArg)
	return p.pbDx
}

func (p *MaxPool) Name() string    { return "maxpool" }
func (p *MaxPool) OutShape() []int { return []int{p.inC, p.outH, p.outW} }

// forwardChunk pools planes [lo, hi) of the C·batch planes.
func (p *MaxPool) forwardChunk(lo, hi int) {
	arg := p.argmax
	if !p.train {
		arg = nil // no backward will read it
	}
	tensor.MaxPoolFwd(p.y.Data(), arg, p.xd, lo, hi, p.inH, p.inW, p.K)
}

func (p *MaxPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkIn("maxpool", x, p.dx.Shape())
	p.ensure()
	p.xd, p.train = x.Data(), train
	// Planes write disjoint output ranges, so plane-parallel execution is
	// bit-deterministic at any worker count.
	tensor.ParallelFor(p.inC*p.batch, 1+(1<<13)/(p.outH*p.outW), p.fwdLoop)
	return p.y
}

// backwardChunk routes the gradient of planes [lo, hi). Pooling windows are
// disjoint (stride == window), so every dx element receives at most one
// term and a plane's argmax entries scatter into that plane only.
func (p *MaxPool) backwardChunk(lo, hi int) {
	tensor.MaxPoolBwd(p.dx.Data(), p.dyd, p.argmax, lo, hi, p.inH, p.inW, p.K)
}

func (p *MaxPool) Backward(dy *tensor.Tensor) *tensor.Tensor {
	p.dyd = dy.Data()
	tensor.ParallelFor(p.inC*p.batch, 1+(1<<13)/(p.inH*p.inW), p.bwdLoop)
	return p.dx
}

// GlobalAvgPool averages each channel's spatial plane, producing the flat
// [B, C] the classifier reads: plane (c, n) of the channel-major input lands
// at y[n·C+c], so the pool is — with Flatten — where samples become rows
// again (actShape). ResNet uses it before the classifier.
type GlobalAvgPool struct {
	stateless
	batch, c, h, w int
	y              *tensor.Tensor
	dx             *tensor.Tensor

	fwdLoop func(lo, hi int)
	bwdLoop func(lo, hi int)
	xd, dyd []float32

	pbY, pbDx *plannedBuf
}

// NewGlobalAvgPool constructs a global average pooling layer.
func NewGlobalAvgPool(batch int, inShape []int) *GlobalAvgPool {
	c, h, w := inShape[0], inShape[1], inShape[2]
	p := &GlobalAvgPool{
		batch: batch, c: c, h: h, w: w,
		y:  tensor.NewShell(batch, c),
		dx: tensor.NewShell(c, batch, h, w),
	}
	p.fwdLoop = p.forwardChunk
	p.bwdLoop = p.backwardChunk
	return p
}

func (p *GlobalAvgPool) ensure() {
	if p.y.HasData() {
		return
	}
	p.y.SetData(make([]float32, tensor.Volume(p.y.Shape())))
	p.dx.SetData(make([]float32, tensor.Volume(p.dx.Shape())))
}

func (p *GlobalAvgPool) planFwd(pl *taskPlanner, in *plannedBuf) *plannedBuf {
	p.pbY = pl.shell("gavgpool.y", p.y, bufActivation)
	pl.touch(in)
	return p.pbY
}

func (p *GlobalAvgPool) planBwd(pl *taskPlanner, dout *plannedBuf) *plannedBuf {
	p.pbDx = pl.shell("gavgpool.dx", p.dx, bufGradient)
	pl.touch(dout)
	return p.pbDx
}

func (p *GlobalAvgPool) Name() string    { return "gavgpool" }
func (p *GlobalAvgPool) OutShape() []int { return []int{p.c} }

// forwardChunk averages planes [lo, hi) of the C·batch planes; plane q is
// channel q/batch of sample q%batch.
func (p *GlobalAvgPool) forwardChunk(lo, hi int) {
	xd, yd := p.xd, p.y.Data()
	plane := p.h * p.w
	inv := 1 / float32(plane)
	for q := lo; q < hi; q++ {
		var s float32
		for _, v := range xd[q*plane : (q+1)*plane] {
			s += v
		}
		yd[q%p.batch*p.c+q/p.batch] = s * inv
	}
}

func (p *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkIn("gavgpool", x, p.dx.Shape())
	p.ensure()
	p.xd = x.Data()
	tensor.ParallelFor(p.c*p.batch, 1+(1<<13)/(p.h*p.w), p.fwdLoop)
	return p.y
}

func (p *GlobalAvgPool) backwardChunk(lo, hi int) {
	dyd, dxd := p.dyd, p.dx.Data()
	plane := p.h * p.w
	inv := 1 / float32(plane)
	for q := lo; q < hi; q++ {
		g := dyd[q%p.batch*p.c+q/p.batch] * inv
		row := dxd[q*plane : (q+1)*plane]
		for j := range row {
			row[j] = g
		}
	}
}

func (p *GlobalAvgPool) Backward(dy *tensor.Tensor) *tensor.Tensor {
	p.dyd = dy.Data()
	tensor.ParallelFor(p.c*p.batch, 1+(1<<13)/(p.h*p.w), p.bwdLoop)
	return p.dx
}
