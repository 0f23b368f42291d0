package nn

import (
	"fmt"
	"math"

	"crossbow/internal/tensor"
)

// BatchNorm normalises each channel over the batch and spatial dimensions,
// then applies a learned scale (gamma) and shift (beta).
//
// Parameter layout (all inside the model's contiguous vector, paper §4.4):
// [gamma | beta | runMean | runVar]. The running statistics are
// non-learnable — their gradients stay zero — but keeping them in the model
// vector makes every replica fully self-contained: averaging replicas (SMA)
// averages their statistics too, and binding the central average model to a
// network for evaluation needs no side state.
//
// The batch statistics (mean, invStd) and the normalised activations (xhat)
// are planned buffers: they are written in the training-mode forward pass
// and read back in backward, so the task planner keeps them live from the
// layer's forward to its backward step.
//
// Activations are channel-major, so channel c is the contiguous row
// [c·L, (c+1)·L), L = batch·H·W, and its (sample, position) order is
// ascending position along the row. The four reductions (Σx, Σ(x−mean)²,
// ΣdY, ΣdY·x̂) and the two elementwise passes are internal/tensor's
// channel-row kernels: SIMD with one channel per lane, so each channel's
// float64 sum is the serial chain of the scalar loop and the results do not
// depend on SIMD being on (tensor/rows.go).
type BatchNorm struct {
	C     int // channels
	batch int
	h, w  int // spatial dims
	// Momentum for the running statistics update.
	Momentum float32
	Eps      float32

	gamma, beta     []float32
	runMean, runVar []float32
	gGamma, gBeta   []float32

	xhat   []float32
	mean   []float32
	invStd []float32
	acc    []float64 // 2·C float64 sums, allocated on first use
	y      *tensor.Tensor
	dx     *tensor.Tensor
	train  bool

	// absorbed: this layer's eval-mode transform was fused into the
	// preceding convolution's GEMM epilogue (Network.FuseInference); the
	// forward pass is the identity and the layer owns no planned buffers.
	absorbed bool

	fwdLoop func(lo, hi int)
	bwdLoop func(lo, hi int)
	xd, dyd []float32 // per-call kernel inputs for the hoisted loops

	pbXhat, pbMean, pbInv, pbY, pbDx *plannedBuf
}

// NewBatchNorm constructs a batch-norm layer over inShape = [C, H, W]; a flat
// [features] shape panics (its features are columns of [batch, features], and
// the channel-row kernels have no strided form). Buffers are declared to the
// memory planner, not allocated here.
func NewBatchNorm(batch int, inShape []int) *BatchNorm {
	if len(inShape) != 3 {
		panic(fmt.Sprintf("nn: batch-norm over shape %v, want [C, H, W]", inShape))
	}
	full := actShape(batch, inShape)
	b := &BatchNorm{
		C: inShape[0], batch: batch, h: inShape[1], w: inShape[2],
		Momentum: 0.9, Eps: 1e-5,
		y:  tensor.NewShell(full...),
		dx: tensor.NewShell(full...),
	}
	b.fwdLoop = b.forwardChunk
	b.bwdLoop = b.backwardChunk
	return b
}

func (b *BatchNorm) ensure() {
	if b.xhat != nil {
		return
	}
	n := tensor.Volume(b.y.Shape())
	b.xhat = make([]float32, n)
	b.mean = make([]float32, b.C)
	b.invStd = make([]float32, b.C)
	b.y.SetData(make([]float32, n))
	b.dx.SetData(make([]float32, n))
}

func (b *BatchNorm) planFwd(p *taskPlanner, in *plannedBuf) *plannedBuf {
	if b.absorbed {
		return in // fused into the upstream epilogue: no buffers, pass-through
	}
	// Outputs first, inputs after (memory.go's sub-op rule): the channel
	// loop reads x throughout while writing statistics, xhat and y. The
	// closing touch includes the secondary outputs so they stay live for
	// the whole kernel step even when no backward walk follows (the
	// forward-only plan): the loop writes them interleaved with y, so none
	// may share y's slot.
	b.pbMean = p.slice("bn.mean", &b.mean, b.C, bufActivation)
	b.pbInv = p.slice("bn.invstd", &b.invStd, b.C, bufActivation)
	b.pbXhat = p.slice("bn.xhat", &b.xhat, tensor.Volume(b.y.Shape()), bufActivation)
	b.pbY = p.shell("bn.y", b.y, bufActivation)
	p.touch(in, b.pbMean, b.pbInv, b.pbXhat)
	return b.pbY
}

func (b *BatchNorm) planBwd(p *taskPlanner, dout *plannedBuf) *plannedBuf {
	b.pbDx = p.shell("bn.dx", b.dx, bufGradient)
	p.touch(dout, b.pbXhat, b.pbMean, b.pbInv)
	return b.pbDx
}

func (b *BatchNorm) Name() string { return "batchnorm" }

func (b *BatchNorm) OutShape() []int { return []int{b.C, b.h, b.w} }

func (b *BatchNorm) NumParams() int { return 4 * b.C }

func (b *BatchNorm) Bind(w, g []float32) {
	c := b.C
	b.gamma, b.beta = w[:c], w[c:2*c]
	b.runMean, b.runVar = w[2*c:3*c], w[3*c:4*c]
	b.gGamma, b.gBeta = g[:c], g[c:2*c]
}

func (b *BatchNorm) InitParams(r *tensor.RNG, w []float32) {
	c := b.C
	tensor.InitConst(w[:c], 1)      // gamma
	tensor.InitConst(w[c:2*c], 0)   // beta
	tensor.InitConst(w[2*c:3*c], 0) // running mean
	tensor.InitConst(w[3*c:4*c], 1) // running var
}

// rowLen returns L, the length of a channel's row.
func (b *BatchNorm) rowLen() int { return b.batch * b.h * b.w }

func (b *BatchNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if b.absorbed {
		if train {
			panic("nn: training forward through a fused (inference-only) network")
		}
		return x
	}
	b.ensure()
	if b.acc == nil {
		b.acc = make([]float64, 2*b.C)
	}
	b.train = train
	b.xd = x.Data()

	// Channels are fully independent (statistics, outputs and the
	// per-channel parameter entries), so channel-parallel execution is
	// bit-deterministic at any worker count.
	tensor.ParallelFor(b.groups(), 1+(1<<12)/b.rowLen(), b.fwdLoop)
	return b.y
}

// groups is the channel count in the units ParallelFor splits: eight
// channels, the row kernels' SIMD group, so a split never strands channels
// on the scalar path.
func (b *BatchNorm) groups() int { return (b.C + 7) / 8 }

func (b *BatchNorm) forwardChunk(gLo, gHi int) {
	cLo, cHi := 8*gLo, min(8*gHi, b.C)
	l := b.rowLen()
	xd, yd := b.xd, b.y.Data()
	mean, invStd := b.mean[cLo:cHi], b.invStd[cLo:cHi]
	if b.train {
		sum, sq := b.acc[cLo:cHi], b.acc[b.C+cLo:b.C+cHi]
		tensor.RowSums64(sum, xd[cLo*l:cHi*l], cHi-cLo, l)
		for i, s := range sum {
			mean[i] = float32(s / float64(l))
		}
		tensor.RowSqDevs64(sq, xd[cLo*l:cHi*l], mean, cHi-cLo, l)
		for i, c := 0, cLo; c < cHi; i, c = i+1, c+1 {
			variance := float32(sq[i] / float64(l))
			invStd[i] = 1 / float32(math.Sqrt(float64(variance)+float64(b.Eps)))
			// Update running statistics in the model vector.
			b.runMean[c] = b.Momentum*b.runMean[c] + (1-b.Momentum)*mean[i]
			b.runVar[c] = b.Momentum*b.runVar[c] + (1-b.Momentum)*variance
		}
	} else {
		for i, c := 0, cLo; c < cHi; i, c = i+1, c+1 {
			mean[i] = b.runMean[c]
			invStd[i] = 1 / float32(math.Sqrt(float64(b.runVar[c])+float64(b.Eps)))
		}
	}
	for c := cLo; c < cHi; c++ {
		tensor.NormRow(yd[c*l:(c+1)*l], b.xhat[c*l:(c+1)*l], xd[c*l:(c+1)*l],
			b.mean[c], b.invStd[c], b.gamma[c], b.beta[c])
	}
}

func (b *BatchNorm) Backward(dy *tensor.Tensor) *tensor.Tensor {
	b.dyd = dy.Data()
	tensor.ParallelFor(b.groups(), 1+(1<<12)/b.rowLen(), b.bwdLoop)
	return b.dx
}

func (b *BatchNorm) backwardChunk(gLo, gHi int) {
	cLo, cHi := 8*gLo, min(8*gHi, b.C)
	l := b.rowLen()
	dyd, dxd := b.dyd, b.dx.Data()
	sumDy, sumDyXhat := b.acc[cLo:cHi], b.acc[b.C+cLo:b.C+cHi]
	tensor.RowDots64(sumDy, sumDyXhat, dyd[cLo*l:cHi*l], b.xhat[cLo*l:cHi*l], cHi-cLo, l)
	count := float32(l)
	for i, c := 0, cLo; c < cHi; i, c = i+1, c+1 {
		b.gBeta[c] += float32(sumDy[i])
		b.gGamma[c] += float32(sumDyXhat[i])

		g, invStd := b.gamma[c], b.invStd[c]
		dx, dy, xhat := dxd[c*l:(c+1)*l], dyd[c*l:(c+1)*l], b.xhat[c*l:(c+1)*l]
		if !b.train {
			// Evaluation-mode backward (used only in gradient tests):
			// statistics are constants.
			for j, v := range dy {
				dx[j] = v * g * invStd
			}
			continue
		}
		tensor.NormGradRow(dx, dy, xhat, g*invStd, float32(sumDy[i])/count, float32(sumDyXhat[i])/count)
	}
}
