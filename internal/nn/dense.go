package nn

import "crossbow/internal/tensor"

// Dense is a fully connected layer: y = x*Wᵀ + b, with x of shape [B, In]
// and y of shape [B, Out]. W is stored Out×In so each output neuron's
// weights are contiguous.
type Dense struct {
	In, Out int
	batch   int

	w, b   []float32 // views into the bound parameter vector
	gw, gb []float32 // views into the bound gradient vector

	x  *tensor.Tensor // cached input for backward
	y  *tensor.Tensor
	dx *tensor.Tensor

	// Inference fusion: the bias (and an absorbed trailing ReLU) are
	// applied by the GEMM epilogue, per output column.
	epi *tensor.Epilogue

	pbIn, pbY, pbDx *plannedBuf
}

// NewDense constructs a dense layer for a fixed batch size.
func NewDense(batch, in, out int) *Dense {
	return &Dense{
		In: in, Out: out, batch: batch,
		y:  tensor.NewShell(batch, out),
		dx: tensor.NewShell(batch, in),
	}
}

func (d *Dense) ensure() {
	if d.y.HasData() {
		return
	}
	d.y.SetData(make([]float32, tensor.Volume(d.y.Shape())))
	d.dx.SetData(make([]float32, tensor.Volume(d.dx.Shape())))
}

func (d *Dense) planFwd(p *taskPlanner, in *plannedBuf) *plannedBuf {
	d.pbIn = in
	d.pbY = p.shell("dense.y", d.y, bufActivation)
	p.touch(in) // forward GEMM reads x
	return d.pbY
}

func (d *Dense) planBwd(p *taskPlanner, dout *plannedBuf) *plannedBuf {
	// Weight/bias gradients read dY and the cached input; the input-grad
	// GEMM reads dY and W while writing dx.
	d.pbDx = p.shell("dense.dx", d.dx, bufGradient)
	p.touch(dout, d.pbIn)
	return d.pbDx
}

func (d *Dense) Name() string    { return "dense" }
func (d *Dense) OutShape() []int { return []int{d.Out} }
func (d *Dense) NumParams() int  { return d.In*d.Out + d.Out }

func (d *Dense) Bind(w, g []float32) {
	nw := d.In * d.Out
	d.w, d.b = w[:nw], w[nw:nw+d.Out]
	d.gw, d.gb = g[:nw], g[nw:nw+d.Out]
}

func (d *Dense) InitParams(r *tensor.RNG, w []float32) {
	nw := d.In * d.Out
	tensor.InitXavier(r, w[:nw], d.In, d.Out)
	tensor.InitConst(w[nw:nw+d.Out], 0)
}

// fuse absorbs the bias (and a trailing ReLU, when absorbed by the fusion
// pass) into the GEMM epilogue, indexed per output column.
func (d *Dense) fuse(relu bool) {
	d.epi = &tensor.Epilogue{ReLU: relu, PerColumn: true}
}

func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkIn("dense", x, d.dx.Shape())
	d.ensure()
	d.x = x
	yd := d.y.Data()
	// y = x (B×In) * Wᵀ (In×Out); W stored Out×In so use GemmTB.
	if d.epi != nil {
		d.epi.Bias = d.b
		tensor.GemmTBEpi(1, x.Data(), d.batch, d.In, d.w, d.Out, 0, yd, d.epi)
		return d.y
	}
	tensor.GemmTB(1, x.Data(), d.batch, d.In, d.w, d.Out, 0, yd)
	for i := 0; i < d.batch; i++ {
		row := yd[i*d.Out : (i+1)*d.Out]
		for j := range row {
			row[j] += d.b[j]
		}
	}
	return d.y
}

func (d *Dense) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dyd := dy.Data()
	// dW (Out×In) += dyᵀ (Out×B) * x (B×In)  — accumulate across batch.
	tensor.GemmTA(1, dyd, d.batch, d.Out, d.x.Data(), d.In, 1, d.gw)
	// db += column sums of dy.
	for i := 0; i < d.batch; i++ {
		row := dyd[i*d.Out : (i+1)*d.Out]
		for j := range row {
			d.gb[j] += row[j]
		}
	}
	// dx (B×In) = dy (B×Out) * W (Out×In).
	tensor.Gemm(1, dyd, d.batch, d.Out, d.w, d.In, 0, d.dx.Data())
	return d.dx
}
