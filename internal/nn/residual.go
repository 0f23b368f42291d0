package nn

import (
	"fmt"

	"crossbow/internal/tensor"
)

// Residual implements a residual block: y = ReLU(F(x) + S(x)), where F is
// the main branch (a sequence of layers) and S is either the identity or a
// projection shortcut (1×1 convolution, optionally batch-normalised) when
// the branch changes shape. ResNet-32 uses two-conv basic blocks; ResNet-50
// uses three-conv bottleneck blocks; both are expressed with this type.
type Residual struct {
	branch   []Layer
	shortcut []Layer // empty => identity
	batch    int
	outShape []int

	y    *tensor.Tensor
	dsum *tensor.Tensor
	dx   *tensor.Tensor

	fwdLoop  func(lo, hi int)
	maskLoop func(lo, hi int)
	combLoop func(lo, hi int)
	fd, sd   []float32 // branch/shortcut outputs for the join loop
	dyd      []float32 // incoming gradient for the mask loop
	dbd, dsd []float32 // branch/shortcut input-gradients for the combine loop

	pbIn, pbY, pbDsum, pbDx *plannedBuf
}

// NewResidual builds a residual block. branch must be non-empty; shortcut
// may be nil for an identity skip, in which case the branch's output shape
// must equal inShape.
func NewResidual(batch int, inShape []int, branch, shortcut []Layer) *Residual {
	if len(branch) == 0 {
		panic("nn: residual block needs a non-empty branch")
	}
	out := branch[len(branch)-1].OutShape()
	if len(shortcut) == 0 && !shapeEq(out, inShape) {
		panic(fmt.Sprintf("nn: identity residual with shape change %v -> %v", inShape, out))
	}
	if len(shortcut) > 0 {
		sOut := shortcut[len(shortcut)-1].OutShape()
		if !shapeEq(sOut, out) {
			panic(fmt.Sprintf("nn: residual branch %v vs shortcut %v shape mismatch", out, sOut))
		}
	}
	full := actShape(batch, out)
	r := &Residual{
		branch: branch, shortcut: shortcut, batch: batch,
		outShape: append([]int(nil), out...),
		y:        tensor.NewShell(full...),
		dsum:     tensor.NewShell(full...),
		dx:       tensor.NewShell(actShape(batch, inShape)...),
	}
	r.fwdLoop = r.joinChunk
	r.maskLoop = r.maskChunk
	r.combLoop = r.combineChunk
	return r
}

func (r *Residual) ensure() {
	if r.y.HasData() {
		return
	}
	n := tensor.Volume(r.y.Shape())
	r.y.SetData(make([]float32, n))
	r.dsum.SetData(make([]float32, n))
	r.dx.SetData(make([]float32, tensor.Volume(r.dx.Shape())))
}

// planFwd walks the branch and shortcut forward passes, then declares the
// join's masked output — the residual-join buffer the §4.5 graph must see
// explicitly, because both inner outputs stay live until the join.
func (r *Residual) planFwd(p *taskPlanner, in *plannedBuf) *plannedBuf {
	r.pbIn = in
	f := in
	for _, l := range r.branch {
		f = planLayerFwd(p, l, f)
	}
	s := in
	for _, l := range r.shortcut {
		s = planLayerFwd(p, l, s)
	}
	// Join reads both paths' outputs (the identity skip reads the block
	// input directly) and writes y. Outputs declared before the input
	// touches (memory.go's sub-op rule).
	r.pbY = p.shell("residual.y", r.y, bufActivation)
	p.touch(f, s)
	if len(r.shortcut) == 0 {
		p.touch(in)
	}
	return r.pbY
}

func (r *Residual) planBwd(p *taskPlanner, dout *plannedBuf) *plannedBuf {
	// Mask: reads dY and the cached output, writes dsum.
	r.pbDsum = p.shell("residual.dsum", r.dsum, bufGradient)
	p.touch(dout, r.pbY)
	// Branch backward chain, seeded by dsum, then the shortcut chain —
	// dsum must stay live across both, which the walk records naturally.
	db := r.pbDsum
	for i := len(r.branch) - 1; i >= 0; i-- {
		db = planLayerBwd(p, r.branch[i], db)
	}
	ds := r.pbDsum
	for i := len(r.shortcut) - 1; i >= 0; i-- {
		ds = planLayerBwd(p, r.shortcut[i], ds)
	}
	// Combine reads both input-gradients (the identity case reads dsum)
	// while writing dx.
	r.pbDx = p.shell("residual.dx", r.dx, bufGradient)
	p.touch(db, ds)
	if len(r.shortcut) == 0 {
		p.touch(r.pbDsum)
	}
	return r.pbDx
}

// planLayerFwd/planLayerBwd plan one inner layer, treating non-planning
// layers like the network planner does (input pinned live, output opaque).
func planLayerFwd(p *taskPlanner, l Layer, in *plannedBuf) *plannedBuf {
	if al, ok := l.(arenaLayer); ok {
		return al.planFwd(p, in)
	}
	if in != nil {
		in.last = 1 << 30
	}
	return nil
}

func planLayerBwd(p *taskPlanner, l Layer, dout *plannedBuf) *plannedBuf {
	if al, ok := l.(arenaLayer); ok {
		return al.planBwd(p, dout)
	}
	return nil
}

func (r *Residual) Name() string    { return "residual" }
func (r *Residual) OutShape() []int { return r.outShape }

func (r *Residual) NumParams() int {
	n := 0
	for _, l := range r.branch {
		n += l.NumParams()
	}
	for _, l := range r.shortcut {
		n += l.NumParams()
	}
	return n
}

func (r *Residual) Bind(w, g []float32) {
	off := 0
	for _, l := range r.branch {
		n := l.NumParams()
		l.Bind(w[off:off+n], g[off:off+n])
		off += n
	}
	for _, l := range r.shortcut {
		n := l.NumParams()
		l.Bind(w[off:off+n], g[off:off+n])
		off += n
	}
}

func (r *Residual) InitParams(rng *tensor.RNG, w []float32) {
	off := 0
	for _, l := range r.branch {
		n := l.NumParams()
		l.InitParams(rng, w[off:off+n])
		off += n
	}
	for _, l := range r.shortcut {
		n := l.NumParams()
		l.InitParams(rng, w[off:off+n])
		off += n
	}
}

// joinChunk fuses the residual add with the ReLU. Only the masked output is
// kept: y > 0 ⇔ the pre-activation sum was positive, so backward needs no
// separate sum buffer.
func (r *Residual) joinChunk(lo, hi int) {
	tensor.AddRelu(r.y.Data()[lo:hi], r.fd[lo:hi], r.sd[lo:hi])
}

func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.ensure()
	f := x
	for _, l := range r.branch {
		f = l.Forward(f, train)
	}
	s := x
	for _, l := range r.shortcut {
		s = l.Forward(s, train)
	}
	r.fd, r.sd = f.Data(), s.Data()
	tensor.ParallelFor(r.y.Len(), 8192, r.fwdLoop)
	return r.y
}

func (r *Residual) maskChunk(lo, hi int) {
	// y > 0 ⇔ the pre-activation sum was positive: the cached output is the
	// gradient mask.
	tensor.ReluBwd(r.dsum.Data()[lo:hi], r.dyd[lo:hi], r.y.Data()[lo:hi])
}

func (r *Residual) combineChunk(lo, hi int) {
	tensor.Add(r.dx.Data()[lo:hi], r.dbd[lo:hi], r.dsd[lo:hi])
}

func (r *Residual) Backward(dy *tensor.Tensor) *tensor.Tensor {
	r.dyd = dy.Data()
	tensor.ParallelFor(r.dsum.Len(), 8192, r.maskLoop)
	// Branch path.
	db := r.dsum
	for i := len(r.branch) - 1; i >= 0; i-- {
		db = r.branch[i].Backward(db)
	}
	// Shortcut path.
	ds := r.dsum
	for i := len(r.shortcut) - 1; i >= 0; i-- {
		ds = r.shortcut[i].Backward(ds)
	}
	r.dbd, r.dsd = db.Data(), ds.Data()
	if len(r.shortcut) == 0 {
		// Identity skip: ds is dsum itself, shaped like the output, which
		// equals the input shape in this case.
		r.dsd = r.dsum.Data()
	}
	tensor.ParallelFor(r.dx.Len(), 8192, r.combLoop)
	return r.dx
}

// Operators returns the layers inside the block, branch first, for operator
// inventories.
func (r *Residual) Operators() []Layer {
	ops := append([]Layer(nil), r.branch...)
	return append(ops, r.shortcut...)
}
