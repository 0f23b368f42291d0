package nn

import (
	"fmt"

	"crossbow/internal/tensor"
)

// Network is a feed-forward stack of layers plus a softmax cross-entropy
// head. One Network instance owns the activation buffers for one learner at
// a fixed batch size; parameters are external and bound per call site, so
// the same instance can evaluate any replica or the central average model.
//
// The input batch is [Batch, InShape...] — NCHW for images, as the data
// pipeline and the serving batcher stage it. Inside the stack spatial
// activations are channel-major (actShape): a leading convolution reads the
// NCHW input in place through its lowering's plane strides, and any other
// first layer over images gets a channel-major copy (inCM).
type Network struct {
	InShape []int
	Classes int
	Batch   int

	layers []Layer
	loss   *SoftmaxCE
	size   int

	fused bool // FuseInference ran: inference-only network

	boundW []float32 // currently bound parameter vector (for sanity checks)

	// inCM is the channel-major copy of an image batch, for a network whose
	// first layer is not a convolution; nil otherwise. It is the one entry
	// into the stack besides the stem conv's strided read, a planned buffer
	// like any layer's, and no shipped model has it.
	inCM *tensor.Tensor

	// Planned task memory (computed lazily; see memory.go): memPlan covers
	// a full learning task, inferPlan the forward-only serving walk.
	// arenaBase identifies the currently attached arena so re-attachment
	// is a no-op.
	memPlan   *MemPlan
	inferPlan *MemPlan
	arenaBase *float32

	preds []int // Evaluate's prediction scratch, allocated once
}

// Builder accumulates layers, threading the evolving per-sample shape so
// model definitions read top-to-bottom like the paper's architecture tables.
type Builder struct {
	batch   int
	in0     []int
	shape   []int
	classes int
	layers  []Layer
	rng     *tensor.RNG
}

// NewBuilder starts a network definition for the given batch size and
// per-sample input shape. rng is used only by stochastic layers (dropout).
func NewBuilder(batch int, inShape []int, classes int, rng *tensor.RNG) *Builder {
	return &Builder{
		batch:   batch,
		in0:     append([]int(nil), inShape...),
		shape:   append([]int(nil), inShape...),
		classes: classes, rng: rng,
	}
}

// Shape returns the current per-sample shape.
func (b *Builder) Shape() []int { return b.shape }

// Add appends a pre-constructed layer and advances the shape.
func (b *Builder) Add(l Layer) *Builder {
	b.layers = append(b.layers, l)
	b.shape = append([]int(nil), l.OutShape()...)
	return b
}

// Conv appends a Conv2D (square kernel k, stride s, padding p).
func (b *Builder) Conv(outC, k, s, p int) *Builder {
	return b.Add(NewConv2D(b.batch, b.shape, outC, k, s, p))
}

// BN appends a batch-norm layer. Batch-norm covers spatial [C, H, W]
// activations only: after Flatten or Dense a feature is a column of
// [batch, features], not a channel row, and NewBatchNorm panics.
func (b *Builder) BN() *Builder { return b.Add(NewBatchNorm(b.batch, b.shape)) }

// ReLU appends a ReLU.
func (b *Builder) ReLU() *Builder { return b.Add(NewReLU(b.batch, b.shape)) }

// MaxPool appends a k×k max pool with stride k.
func (b *Builder) MaxPool(k int) *Builder { return b.Add(NewMaxPool(b.batch, b.shape, k)) }

// GlobalAvgPool appends a global average pool.
func (b *Builder) GlobalAvgPool() *Builder { return b.Add(NewGlobalAvgPool(b.batch, b.shape)) }

// Flatten appends a flatten layer.
func (b *Builder) Flatten() *Builder { return b.Add(NewFlatten(b.batch, b.shape)) }

// Dense appends a fully connected layer; the current shape must be flat.
func (b *Builder) Dense(out int) *Builder {
	if len(b.shape) != 1 {
		panic(fmt.Sprintf("nn: Dense on non-flat shape %v (insert Flatten)", b.shape))
	}
	return b.Add(NewDense(b.batch, b.shape[0], out))
}

// Dropout appends a dropout layer with drop probability p.
func (b *Builder) Dropout(p float64) *Builder {
	return b.Add(NewDropout(b.batch, b.shape, p, b.rng))
}

// BasicBlock appends a ResNet basic residual block (3×3 conv, BN, ReLU,
// 3×3 conv, BN; projection shortcut when stride ≠ 1 or channels change).
func (b *Builder) BasicBlock(outC, stride int) *Builder {
	in := b.shape
	batch := b.batch
	c1 := NewConv2D(batch, in, outC, 3, stride, 1)
	bn1 := NewBatchNorm(batch, c1.OutShape())
	r1 := NewReLU(batch, bn1.OutShape())
	c2 := NewConv2D(batch, r1.OutShape(), outC, 3, 1, 1)
	bn2 := NewBatchNorm(batch, c2.OutShape())
	branch := []Layer{c1, bn1, r1, c2, bn2}
	var shortcut []Layer
	if stride != 1 || in[0] != outC {
		sc := NewConv2D(batch, in, outC, 1, stride, 0)
		sbn := NewBatchNorm(batch, sc.OutShape())
		shortcut = []Layer{sc, sbn}
	}
	return b.Add(NewResidual(batch, in, branch, shortcut))
}

// BottleneckBlock appends a ResNet bottleneck block (1×1 reduce, 3×3,
// 1×1 expand, each followed by BN; ReLU between; projection shortcut on
// shape change). outC is the expanded (output) width; midC the bottleneck.
func (b *Builder) BottleneckBlock(midC, outC, stride int) *Builder {
	in := b.shape
	batch := b.batch
	c1 := NewConv2D(batch, in, midC, 1, 1, 0)
	bn1 := NewBatchNorm(batch, c1.OutShape())
	r1 := NewReLU(batch, bn1.OutShape())
	c2 := NewConv2D(batch, r1.OutShape(), midC, 3, stride, 1)
	bn2 := NewBatchNorm(batch, c2.OutShape())
	r2 := NewReLU(batch, bn2.OutShape())
	c3 := NewConv2D(batch, r2.OutShape(), outC, 1, 1, 0)
	bn3 := NewBatchNorm(batch, c3.OutShape())
	branch := []Layer{c1, bn1, r1, c2, bn2, r2, c3, bn3}
	var shortcut []Layer
	if stride != 1 || in[0] != outC {
		sc := NewConv2D(batch, in, outC, 1, stride, 0)
		sbn := NewBatchNorm(batch, sc.OutShape())
		shortcut = []Layer{sc, sbn}
	}
	return b.Add(NewResidual(batch, in, branch, shortcut))
}

// Build finalises the network. The last layer's output must be flat with
// width equal to the class count.
func (b *Builder) Build() *Network {
	if len(b.layers) == 0 || len(b.shape) != 1 || b.shape[0] != b.classes {
		panic(fmt.Sprintf("nn: network output shape %v does not match %d classes", b.shape, b.classes))
	}
	n := &Network{
		InShape: b.in0, Classes: b.classes, Batch: b.batch,
		layers: b.layers,
		loss:   NewSoftmaxCE(b.batch, b.classes),
	}
	for _, l := range b.layers {
		n.size += l.NumParams()
	}
	if c, ok := n.layers[0].(*Conv2D); ok {
		c.readNetInput()
	} else if len(b.in0) == 3 {
		n.inCM = tensor.NewShell(actShape(b.batch, b.in0)...)
	}
	return n
}

// ParamSize returns the total number of parameters (including batch-norm
// running statistics, which live in the model vector).
func (n *Network) ParamSize() int { return n.size }

// Layers returns the layer list (read-only use).
func (n *Network) Layers() []Layer { return n.layers }

// NumOperators counts primitive operators, descending into residual blocks
// and counting the block's sum+ReLU as one combined operator — the paper's
// Table 1 "# Ops" counts dataflow operators the same way.
func (n *Network) NumOperators() int {
	count := 0
	for _, l := range n.layers {
		if r, ok := l.(*Residual); ok {
			count += len(r.Operators()) + 1
			continue
		}
		count++
	}
	return count + 1 // loss head
}

// Bind attaches parameter and gradient vectors to every layer. Both must
// have length ParamSize.
func (n *Network) Bind(w, g []float32) {
	if len(w) != n.size || len(g) != n.size {
		panic(fmt.Sprintf("nn: Bind with %d/%d values, want %d", len(w), len(g), n.size))
	}
	off := 0
	for _, l := range n.layers {
		p := l.NumParams()
		l.Bind(w[off:off+p], g[off:off+p])
		off += p
	}
	n.boundW = w
}

// Init returns a freshly initialised parameter vector.
func (n *Network) Init(r *tensor.RNG) []float32 {
	w := make([]float32, n.size)
	off := 0
	for _, l := range n.layers {
		p := l.NumParams()
		l.InitParams(r, w[off:off+p])
		off += p
	}
	return w
}

// Forward runs the stack and returns the logits tensor.
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if n.boundW == nil {
		panic("nn: Forward before Bind")
	}
	h := x
	if n.inCM != nil {
		if !n.inCM.HasData() {
			n.inCM.SetData(make([]float32, x.Len()))
		}
		tensor.SwapOuter(n.inCM.Data(), x.Data(), n.Batch, n.InShape[0], n.InShape[1]*n.InShape[2])
		h = n.inCM
	}
	for _, l := range n.layers {
		h = l.Forward(h, train)
	}
	return h
}

// LossAndGrad runs forward in training mode, computes the loss and runs the
// full backward pass, accumulating parameter gradients into the bound
// gradient vector (callers zero it between iterations). It returns the mean
// batch loss. The gradient of the network input is not computed: a leading
// convolution's Backward returns nil after its parameter gradients.
func (n *Network) LossAndGrad(x *tensor.Tensor, labels []int) float64 {
	logits := n.Forward(x, true)
	loss, dy := n.loss.Loss(logits, labels)
	var d *tensor.Tensor = dy
	for i := len(n.layers) - 1; i >= 0; i-- {
		d = n.layers[i].Backward(d)
	}
	return loss
}

// Predict runs forward in evaluation mode and classifies the batch: preds[i]
// receives sample i's arg-max class and conf[i] (when non-nil) the winning
// softmax probability. Unlike Evaluate it needs no labels and touches no
// gradient state, so it runs against a forward-only inference arena
// (AttachInferenceArena) — the serving engine's hot path — and is
// allocation-free in steady state. preds must hold Batch entries; conf, if
// given, likewise.
func (n *Network) Predict(x *tensor.Tensor, preds []int, conf []float32) {
	if len(preds) < n.Batch {
		panic(fmt.Sprintf("nn: Predict with %d prediction slots, want %d", len(preds), n.Batch))
	}
	if conf != nil && len(conf) < n.Batch {
		panic(fmt.Sprintf("nn: Predict with %d confidence slots, want %d", len(conf), n.Batch))
	}
	logits := n.Forward(x, false)
	probs := n.loss.Probs(logits).Data()
	c := n.Classes
	for i := 0; i < n.Batch; i++ {
		row := probs[i*c : (i+1)*c]
		best, bi := row[0], 0
		for j, v := range row[1:] {
			if v > best {
				best, bi = v, j+1
			}
		}
		preds[i] = bi
		if conf != nil {
			conf[i] = best
		}
	}
}

// Evaluate runs forward in evaluation mode and returns the number of
// correctly classified samples in the batch.
func (n *Network) Evaluate(x *tensor.Tensor, labels []int) int {
	logits := n.Forward(x, false)
	_, _ = n.loss.Loss(logits, labels)
	if n.preds == nil {
		n.preds = make([]int, n.Batch) // once per network, not per batch
	}
	preds := n.loss.Predictions(n.preds)
	correct := 0
	for i, p := range preds {
		if p == labels[i] {
			correct++
		}
	}
	return correct
}
