package nn

import "fmt"

// This file defines the *full-scale* architectures of the four benchmark
// models as pure metadata: per-operator parameter counts, forward FLOPs and
// activation sizes. The hardware simulator (internal/gpusim) costs kernels
// from these specs, and the Table 1 reproduction prints their inventory.
// The numbers are per sample; callers scale by batch size.

// OpSpec describes one dataflow operator of a full-scale model.
type OpSpec struct {
	Kind     string // conv, bn, relu, pool, gavgpool, dense, add, dropout, loss
	Params   int64  // learnable + stored parameters
	FLOPs    int64  // forward floating-point operations per sample
	OutElems int64  // output activation elements per sample
}

// ModelSpec is the full-scale description of a benchmark model and its
// dataset (paper Table 1).
type ModelSpec struct {
	Model        ModelID
	Dataset      string
	Input        [3]int // C, H, W
	Classes      int
	TrainSamples int
	TestSamples  int
	Ops          []OpSpec
}

// NumOps returns the operator count (Table 1 "# Ops"). The paper counts
// the dataflow operators of a learning task, which spans the forward and
// the backward pass, so each operator contributes twice.
func (s *ModelSpec) NumOps() int { return 2 * len(s.Ops) }

// ParamCount returns the total parameter count.
func (s *ModelSpec) ParamCount() int64 {
	var n int64
	for _, op := range s.Ops {
		n += op.Params
	}
	return n
}

// ModelMB returns the model size in MB (float32 parameters), Table 1
// "Model size (MB)".
func (s *ModelSpec) ModelMB() float64 { return float64(s.ParamCount()) * 4 / 1e6 }

// InputMB returns the training-set size in MB (float32 pixels), Table 1
// "Input size (MB)".
func (s *ModelSpec) InputMB() float64 {
	perSample := int64(s.Input[0]) * int64(s.Input[1]) * int64(s.Input[2]) * 4
	return float64(perSample*int64(s.TrainSamples)) / 1e6
}

// SampleBytes returns the bytes of one input sample.
func (s *ModelSpec) SampleBytes() int64 {
	return int64(s.Input[0]) * int64(s.Input[1]) * int64(s.Input[2]) * 4
}

// ForwardFLOPs returns total forward FLOPs per sample.
func (s *ModelSpec) ForwardFLOPs() int64 {
	var n int64
	for _, op := range s.Ops {
		n += op.FLOPs
	}
	return n
}

// ActivationBytes returns the per-sample bytes of all operator outputs —
// the quantity the memory planner (internal/memplan) reduces by buffer
// reuse (paper §4.5: ResNet-50 needs 7.5 GB of operator outputs at b=32
// against a 97.5 MB model).
func (s *ModelSpec) ActivationBytes() int64 {
	var n int64
	for _, op := range s.Ops {
		n += op.OutElems * 4
	}
	return n
}

// specBuilder accumulates operators while tracking the activation shape.
type specBuilder struct {
	c, h, w int
	ops     []OpSpec
}

func (b *specBuilder) out() int64 { return int64(b.c) * int64(b.h) * int64(b.w) }

func (b *specBuilder) conv(outC, k, stride, pad int) *specBuilder {
	oh := (b.h+2*pad-k)/stride + 1
	ow := (b.w+2*pad-k)/stride + 1
	params := int64(outC)*int64(b.c)*int64(k)*int64(k) + int64(outC)
	flops := 2 * int64(k) * int64(k) * int64(b.c) * int64(outC) * int64(oh) * int64(ow)
	b.c, b.h, b.w = outC, oh, ow
	b.ops = append(b.ops, OpSpec{Kind: "conv", Params: params, FLOPs: flops, OutElems: b.out()})
	return b
}

func (b *specBuilder) bn() *specBuilder {
	b.ops = append(b.ops, OpSpec{Kind: "bn", Params: 4 * int64(b.c), FLOPs: 4 * b.out(), OutElems: b.out()})
	return b
}

func (b *specBuilder) relu() *specBuilder {
	b.ops = append(b.ops, OpSpec{Kind: "relu", FLOPs: b.out(), OutElems: b.out()})
	return b
}

func (b *specBuilder) pool(k int) *specBuilder {
	b.h /= k
	b.w /= k
	b.ops = append(b.ops, OpSpec{Kind: "pool", FLOPs: int64(k*k) * b.out(), OutElems: b.out()})
	return b
}

func (b *specBuilder) gavg() *specBuilder {
	flops := b.out()
	b.h, b.w = 1, 1
	b.ops = append(b.ops, OpSpec{Kind: "gavgpool", FLOPs: flops, OutElems: int64(b.c)})
	return b
}

func (b *specBuilder) dense(out int) *specBuilder {
	in := b.out()
	params := in*int64(out) + int64(out)
	b.c, b.h, b.w = out, 1, 1
	b.ops = append(b.ops, OpSpec{Kind: "dense", Params: params, FLOPs: 2 * in * int64(out), OutElems: int64(out)})
	return b
}

func (b *specBuilder) dropout() *specBuilder {
	b.ops = append(b.ops, OpSpec{Kind: "dropout", FLOPs: b.out(), OutElems: b.out()})
	return b
}

func (b *specBuilder) add() *specBuilder {
	b.ops = append(b.ops, OpSpec{Kind: "add", FLOPs: b.out(), OutElems: b.out()})
	return b
}

func (b *specBuilder) loss(classes int) *specBuilder {
	b.ops = append(b.ops, OpSpec{Kind: "loss", FLOPs: 3 * int64(classes), OutElems: int64(classes)})
	return b
}

// basicBlock adds a full-scale ResNet basic block's operators.
func (b *specBuilder) basicBlock(outC, stride int) *specBuilder {
	inC := b.c
	inH, inW := b.h, b.w
	b.conv(outC, 3, stride, 1).bn().relu().conv(outC, 3, 1, 1).bn()
	if stride != 1 || inC != outC {
		// Projection shortcut costed on the block input shape.
		sb := specBuilder{c: inC, h: inH, w: inW}
		sb.conv(outC, 1, stride, 0).bn()
		b.ops = append(b.ops, sb.ops...)
	}
	return b.add().relu()
}

// bottleneck adds a full-scale ResNet bottleneck block's operators.
func (b *specBuilder) bottleneck(midC, outC, stride int) *specBuilder {
	inC := b.c
	inH, inW := b.h, b.w
	b.conv(midC, 1, 1, 0).bn().relu().
		conv(midC, 3, stride, 1).bn().relu().
		conv(outC, 1, 1, 0).bn()
	if stride != 1 || inC != outC {
		sb := specBuilder{c: inC, h: inH, w: inW}
		sb.conv(outC, 1, stride, 0).bn()
		b.ops = append(b.ops, sb.ops...)
	}
	return b.add().relu()
}

// FullSpec returns the full-scale specification of a benchmark model.
func FullSpec(id ModelID) *ModelSpec {
	switch id {
	case LeNet:
		b := &specBuilder{c: 1, h: 28, w: 28}
		b.conv(32, 5, 1, 2).relu().pool(2).
			conv(64, 5, 1, 2).relu().pool(2).
			dense(300).relu().dense(10).loss(10)
		return &ModelSpec{
			Model: LeNet, Dataset: "MNIST", Input: [3]int{1, 28, 28}, Classes: 10,
			TrainSamples: 60000, TestSamples: 10000, Ops: b.ops,
		}
	case ResNet32:
		b := &specBuilder{c: 3, h: 32, w: 32}
		b.conv(16, 3, 1, 1).bn().relu()
		for i := 0; i < 5; i++ {
			b.basicBlock(16, 1)
		}
		b.basicBlock(32, 2)
		for i := 0; i < 4; i++ {
			b.basicBlock(32, 1)
		}
		b.basicBlock(64, 2)
		for i := 0; i < 4; i++ {
			b.basicBlock(64, 1)
		}
		b.gavg().dense(10).loss(10)
		return &ModelSpec{
			Model: ResNet32, Dataset: "CIFAR-10", Input: [3]int{3, 32, 32}, Classes: 10,
			TrainSamples: 50000, TestSamples: 10000, Ops: b.ops,
		}
	case VGG16:
		b := &specBuilder{c: 3, h: 32, w: 32}
		widths := [][]int{{64, 64}, {128, 128}, {256, 256, 256}, {512, 512, 512}, {512, 512, 512}}
		for _, stage := range widths {
			for _, w := range stage {
				b.conv(w, 3, 1, 1).bn().relu()
			}
			b.pool(2)
		}
		b.dense(512).relu().dropout().dense(100).loss(100)
		return &ModelSpec{
			Model: VGG16, Dataset: "CIFAR-100", Input: [3]int{3, 32, 32}, Classes: 100,
			TrainSamples: 50000, TestSamples: 10000, Ops: b.ops,
		}
	case ResNet50:
		b := &specBuilder{c: 3, h: 224, w: 224}
		b.conv(64, 7, 2, 3).bn().relu().pool(2)
		stages := []struct {
			mid, out, blocks, stride int
		}{
			{64, 256, 3, 1},
			{128, 512, 4, 2},
			{256, 1024, 6, 2},
			{512, 2048, 3, 2},
		}
		for _, st := range stages {
			b.bottleneck(st.mid, st.out, st.stride)
			for i := 1; i < st.blocks; i++ {
				b.bottleneck(st.mid, st.out, 1)
			}
		}
		b.gavg().dense(1000).loss(1000)
		return &ModelSpec{
			Model: ResNet50, Dataset: "ILSVRC 2012", Input: [3]int{3, 224, 224}, Classes: 1000,
			TrainSamples: 1281167, TestSamples: 50000, Ops: b.ops,
		}
	}
	panic(fmt.Sprintf("nn: unknown model %q", id))
}
