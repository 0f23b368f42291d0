package nn

import (
	"fmt"
	"sync"

	"crossbow/internal/tensor"
)

// This file views the *full-scale* benchmark models as per-operator
// metadata: parameter counts, forward FLOPs and activation sizes. The
// architectures themselves are written once, as BuildFull's layer stacks;
// FullSpec walks that stack and costs each layer. The hardware simulator
// (internal/gpusim) costs kernels from these specs, and the Table 1
// reproduction prints their inventory. The numbers are per sample; callers
// scale by batch size.

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
	return float64(s.SampleBytes()*int64(s.TrainSamples)) / 1e6
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

// fullData is each benchmark's dataset (paper Table 1), the part of a
// full-scale model its layer stack does not carry.
var fullData = map[ModelID]ModelSpec{
	LeNet:    {Dataset: "MNIST", Input: [3]int{1, 28, 28}, Classes: 10, TrainSamples: 60000, TestSamples: 10000},
	ResNet32: {Dataset: "CIFAR-10", Input: [3]int{3, 32, 32}, Classes: 10, TrainSamples: 50000, TestSamples: 10000},
	VGG16:    {Dataset: "CIFAR-100", Input: [3]int{3, 32, 32}, Classes: 100, TrainSamples: 50000, TestSamples: 10000},
	ResNet50: {Dataset: "ILSVRC 2012", Input: [3]int{3, 224, 224}, Classes: 1000, TrainSamples: 1281167, TestSamples: 50000},
}

// fullSpecs derives each model's spec once per process: walking a
// full-scale layer stack costs up to ~0.2 ms, and the simulator asks for a
// spec on every run.
var fullSpecs = func() map[ModelID]func() *ModelSpec {
	m := make(map[ModelID]func() *ModelSpec, len(fullData))
	for id := range fullData {
		id := id
		m[id] = sync.OnceValue(func() *ModelSpec {
			s := fullData[id]
			s.Model = id
			s.Ops = append(specOps(nil, BuildFull(id, 1).Layers()),
				OpSpec{Kind: "loss", FLOPs: 3 * int64(s.Classes), OutElems: int64(s.Classes)})
			return &s
		})
	}
	return m
}()

// FullSpec returns the full-scale specification of a benchmark model. The
// result is shared and must not be modified.
func FullSpec(id ModelID) *ModelSpec {
	spec, ok := fullSpecs[id]
	if !ok {
		panic(fmt.Sprintf("nn: unknown model %q", id))
	}
	return spec()
}

// specOps appends the operators of a layer stack to ops: one per layer,
// none for a flatten, and for a residual block its branch, then its
// shortcut, then the join's add and ReLU.
func specOps(ops []OpSpec, layers []Layer) []OpSpec {
	for _, l := range layers {
		out := int64(tensor.Volume(l.OutShape()))
		op := OpSpec{Params: int64(l.NumParams()), FLOPs: out, OutElems: out}
		switch l := l.(type) {
		case *Conv2D:
			g := l.Geom
			op.Kind, op.FLOPs = "conv", 2*int64(g.KH*g.KW*g.InC)*out
		case *BatchNorm:
			op.Kind, op.FLOPs = "bn", 4*out
		case *ReLU:
			op.Kind = "relu"
		case *MaxPool:
			op.Kind, op.FLOPs = "pool", int64(l.K*l.K)*out
		case *GlobalAvgPool:
			op.Kind, op.FLOPs = "gavgpool", int64(l.c*l.h*l.w)
		case *Dense:
			op.Kind, op.FLOPs = "dense", 2*int64(l.In)*out
		case *Dropout:
			op.Kind = "dropout"
		case *Flatten:
			continue
		case *Residual:
			ops = specOps(specOps(ops, l.branch), l.shortcut)
			ops = append(ops, OpSpec{Kind: "add", FLOPs: out, OutElems: out},
				OpSpec{Kind: "relu", FLOPs: out, OutElems: out})
			continue
		default:
			panic(fmt.Sprintf("nn: no full-scale cost for layer %s", l.Name()))
		}
		ops = append(ops, op)
	}
	return ops
}
