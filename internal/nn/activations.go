package nn

import "crossbow/internal/tensor"

// ReLU applies max(0, x) element-wise.
type ReLU struct {
	stateless
	shape []int // per-sample shape
	batch int

	y  *tensor.Tensor
	dx *tensor.Tensor

	fwdLoop func(lo, hi int)
	bwdLoop func(lo, hi int)
	xd, dyd []float32

	// absorbed: fused into the preceding layer's GEMM epilogue
	// (Network.FuseInference); forward is the identity.
	absorbed bool

	pbY, pbDx *plannedBuf
}

// NewReLU constructs a ReLU over per-sample shape inShape.
func NewReLU(batch int, inShape []int) *ReLU {
	full := actShape(batch, inShape)
	r := &ReLU{
		shape: append([]int(nil), inShape...),
		batch: batch,
		y:     tensor.NewShell(full...),
		dx:    tensor.NewShell(full...),
	}
	r.fwdLoop = r.forwardChunk
	r.bwdLoop = r.backwardChunk
	return r
}

func (r *ReLU) ensure() {
	if r.y.HasData() {
		return
	}
	n := tensor.Volume(r.y.Shape())
	r.y.SetData(make([]float32, n))
	r.dx.SetData(make([]float32, n))
}

func (r *ReLU) planFwd(p *taskPlanner, in *plannedBuf) *plannedBuf {
	if r.absorbed {
		return in // fused into the upstream epilogue: no buffers, pass-through
	}
	r.pbY = p.shell("relu.y", r.y, bufActivation)
	p.touch(in)
	return r.pbY
}

func (r *ReLU) planBwd(p *taskPlanner, dout *plannedBuf) *plannedBuf {
	r.pbDx = p.shell("relu.dx", r.dx, bufGradient)
	p.touch(dout, r.pbY) // the cached output doubles as the gradient mask
	return r.pbDx
}

func (r *ReLU) Name() string    { return "relu" }
func (r *ReLU) OutShape() []int { return r.shape }

func (r *ReLU) forwardChunk(lo, hi int) {
	tensor.ReluFwd(r.y.Data()[lo:hi], r.xd[lo:hi])
}

func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if r.absorbed {
		if train {
			panic("nn: training forward through a fused (inference-only) network")
		}
		return x
	}
	r.ensure()
	r.xd = x.Data()
	tensor.ParallelFor(len(r.xd), 8192, r.fwdLoop)
	return r.y
}

func (r *ReLU) backwardChunk(lo, hi int) {
	// y > 0 ⇔ the forward input was positive, so the cached output doubles
	// as the gradient mask.
	tensor.ReluBwd(r.dx.Data()[lo:hi], r.dyd[lo:hi], r.y.Data()[lo:hi])
}

func (r *ReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	r.dyd = dy.Data()
	tensor.ParallelFor(r.y.Len(), 8192, r.bwdLoop)
	return r.dx
}

// Dropout zeroes activations with probability P during training and scales
// the survivors by 1/(1-P) (inverted dropout); it is the identity at
// evaluation time. VGG-16's classifier head uses it. The mask is drawn in
// storage order.
type Dropout struct {
	stateless
	P     float64
	shape []int
	batch int
	rng   *tensor.RNG

	keep []float32
	y    *tensor.Tensor
	dx   *tensor.Tensor

	pbKeep, pbY, pbDx *plannedBuf
}

// NewDropout constructs a dropout layer with drop probability p.
func NewDropout(batch int, inShape []int, p float64, rng *tensor.RNG) *Dropout {
	full := actShape(batch, inShape)
	return &Dropout{
		P: p, shape: append([]int(nil), inShape...), batch: batch, rng: rng,
		y:  tensor.NewShell(full...),
		dx: tensor.NewShell(full...),
	}
}

func (d *Dropout) ensure() {
	if d.keep != nil {
		return
	}
	n := tensor.Volume(d.y.Shape())
	d.keep = make([]float32, n)
	d.y.SetData(make([]float32, n))
	d.dx.SetData(make([]float32, n))
}

func (d *Dropout) planFwd(p *taskPlanner, in *plannedBuf) *plannedBuf {
	// keep is written interleaved with y, so the closing touch keeps it
	// live across the step even in the forward-only plan (memory.go's
	// sub-op rule — siblings of one kernel step must not share slots).
	d.pbKeep = p.slice("dropout.keep", &d.keep, tensor.Volume(d.y.Shape()), bufActivation)
	d.pbY = p.shell("dropout.y", d.y, bufActivation)
	p.touch(in, d.pbKeep)
	return d.pbY
}

func (d *Dropout) planBwd(p *taskPlanner, dout *plannedBuf) *plannedBuf {
	d.pbDx = p.shell("dropout.dx", d.dx, bufGradient)
	p.touch(dout, d.pbKeep)
	return d.pbDx
}

func (d *Dropout) Name() string    { return "dropout" }
func (d *Dropout) OutShape() []int { return d.shape }

func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	d.ensure()
	xd, yd := x.Data(), d.y.Data()
	if !train || d.P <= 0 {
		copy(yd, xd)
		for i := range d.keep {
			d.keep[i] = 1
		}
		return d.y
	}
	scale := float32(1 / (1 - d.P))
	for i, v := range xd {
		if d.rng.Float64() < d.P {
			d.keep[i] = 0
			yd[i] = 0
		} else {
			d.keep[i] = scale
			yd[i] = v * scale
		}
	}
	return d.y
}

func (d *Dropout) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dyd, dxd := dy.Data(), d.dx.Data()
	for i, k := range d.keep {
		dxd[i] = dyd[i] * k
	}
	return d.dx
}

// Flatten turns a spatial activation into a flat one: channel-major
// [C, B, H, W] becomes [B, C·H·W], each sample's features in (c, h, w) order
// as the dense layers' weights expect them — one of the two places where
// samples become rows again (actShape). It is a transposing copy of
// H·W-float runs each way.
type Flatten struct {
	stateless
	in    []int
	batch int

	y  *tensor.Tensor // [B, V]
	dx *tensor.Tensor // [C, B, H, W]

	pbY, pbDx *plannedBuf
}

// NewFlatten constructs a flatten layer over inShape = [C, H, W].
func NewFlatten(batch int, inShape []int) *Flatten {
	return &Flatten{
		in: append([]int(nil), inShape...), batch: batch,
		y:  tensor.NewShell(batch, tensor.Volume(inShape)),
		dx: tensor.NewShell(actShape(batch, inShape)...),
	}
}

func (f *Flatten) ensure() {
	if f.y.HasData() {
		return
	}
	f.y.SetData(make([]float32, tensor.Volume(f.y.Shape())))
	f.dx.SetData(make([]float32, tensor.Volume(f.dx.Shape())))
}

func (f *Flatten) Name() string    { return "flatten" }
func (f *Flatten) OutShape() []int { return []int{tensor.Volume(f.in)} }

func (f *Flatten) planFwd(p *taskPlanner, in *plannedBuf) *plannedBuf {
	f.pbY = p.shell("flatten.y", f.y, bufActivation)
	p.touch(in)
	return f.pbY
}

func (f *Flatten) planBwd(p *taskPlanner, dout *plannedBuf) *plannedBuf {
	f.pbDx = p.shell("flatten.dx", f.dx, bufGradient)
	p.touch(dout)
	return f.pbDx
}

func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkIn("flatten", x, f.dx.Shape())
	f.ensure()
	tensor.SwapOuter(f.y.Data(), x.Data(), f.in[0], f.batch, f.in[1]*f.in[2])
	return f.y
}

func (f *Flatten) Backward(dy *tensor.Tensor) *tensor.Tensor {
	tensor.SwapOuter(f.dx.Data(), dy.Data(), f.batch, f.in[0], f.in[1]*f.in[2])
	return f.dx
}
