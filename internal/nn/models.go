package nn

import (
	"fmt"

	"crossbow/internal/tensor"
)

// ModelID names one of the paper's four benchmark models (Table 1).
type ModelID string

// The four deep-learning benchmarks of the paper's evaluation (Table 1).
const (
	LeNet    ModelID = "lenet"    // MNIST
	ResNet32 ModelID = "resnet32" // CIFAR-10
	VGG16    ModelID = "vgg16"    // CIFAR-100
	ResNet50 ModelID = "resnet50" // ILSVRC 2012
)

// AllModels lists the benchmark models in the paper's Table 1 order.
var AllModels = []ModelID{LeNet, ResNet32, VGG16, ResNet50}

// ScaledConfig describes the scaled-down trainable variant of a benchmark
// model: same architectural family (conv/dense mix, residual structure,
// depth pattern) at a size a CPU can train in seconds. The full-scale
// architecture is BuildFull's.
type ScaledConfig struct {
	Input   []int // per-sample input shape [C, H, W]
	Classes int
}

// ScaledConfigs maps each benchmark to its scaled trainable configuration.
var ScaledConfigs = map[ModelID]ScaledConfig{
	LeNet:    {Input: []int{1, 12, 12}, Classes: 10},
	ResNet32: {Input: []int{3, 8, 8}, Classes: 10},
	VGG16:    {Input: []int{3, 8, 8}, Classes: 20},
	ResNet50: {Input: []int{3, 8, 8}, Classes: 10},
}

// BuildFull constructs the *full-scale* benchmark architecture (paper
// Table 1) as a real layer stack. It is the one place each full-scale
// architecture is written: FullSpec, which the hardware simulator costs and
// Table 1 prints, is a walk over it. Since layers declare buffers to the
// memory planner instead of allocating them, building a full-scale network
// is cheap: the result's MemPlan describes the true per-learner footprint —
// conv lowering scratch, batch-norm statistics and residual joins included —
// which the auto-tuner's memory cap is derived from (§4.5). Training it
// would require attaching a (multi-GB) arena; the planner never does.
func BuildFull(id ModelID, batch int) *Network {
	data, ok := fullData[id]
	if !ok {
		panic(fmt.Sprintf("nn: unknown model %q", id))
	}
	b := NewBuilder(batch, data.Input[:], data.Classes, tensor.NewRNG(1))
	switch id {
	case LeNet:
		b.Conv(32, 5, 1, 2).ReLU().MaxPool(2).
			Conv(64, 5, 1, 2).ReLU().MaxPool(2).
			Flatten().Dense(300).ReLU().Dense(10)
	case ResNet32:
		b.Conv(16, 3, 1, 1).BN().ReLU()
		for i := 0; i < 5; i++ {
			b.BasicBlock(16, 1)
		}
		b.BasicBlock(32, 2)
		for i := 0; i < 4; i++ {
			b.BasicBlock(32, 1)
		}
		b.BasicBlock(64, 2)
		for i := 0; i < 4; i++ {
			b.BasicBlock(64, 1)
		}
		b.GlobalAvgPool().Dense(10)
	case VGG16:
		widths := [][]int{{64, 64}, {128, 128}, {256, 256, 256}, {512, 512, 512}, {512, 512, 512}}
		for _, stage := range widths {
			for _, w := range stage {
				b.Conv(w, 3, 1, 1).BN().ReLU()
			}
			b.MaxPool(2)
		}
		b.Flatten().Dense(512).ReLU().Dropout(0.5).Dense(100)
	case ResNet50:
		b.Conv(64, 7, 2, 3).BN().ReLU().MaxPool(2)
		stages := []struct {
			mid, out, blocks, stride int
		}{
			{64, 256, 3, 1},
			{128, 512, 4, 2},
			{256, 1024, 6, 2},
			{512, 2048, 3, 2},
		}
		for _, st := range stages {
			b.BottleneckBlock(st.mid, st.out, st.stride)
			for i := 1; i < st.blocks; i++ {
				b.BottleneckBlock(st.mid, st.out, 1)
			}
		}
		b.GlobalAvgPool().Dense(1000)
	}
	return b.Build()
}

// BuildScaled constructs the scaled trainable network for a benchmark model
// at the given batch size. rng drives stochastic layers (dropout).
func BuildScaled(id ModelID, batch int, rng *tensor.RNG) *Network {
	cfg, ok := ScaledConfigs[id]
	if !ok {
		panic(fmt.Sprintf("nn: unknown model %q", id))
	}
	b := NewBuilder(batch, cfg.Input, cfg.Classes, rng)
	switch id {
	case LeNet:
		// LeNet family: two conv+pool stages then a dense classifier.
		b.Conv(8, 3, 1, 1).ReLU().MaxPool(2). // 8×6×6
							Conv(16, 3, 1, 1).ReLU().MaxPool(2). // 16×3×3
							Flatten().Dense(32).ReLU().Dense(cfg.Classes)
	case ResNet32:
		// ResNet-32 family: conv stem, three stages of basic blocks with
		// widths doubling and stride-2 transitions, global average pool.
		b.Conv(8, 3, 1, 1).BN().ReLU()
		b.BasicBlock(8, 1).BasicBlock(8, 1)
		b.BasicBlock(16, 2).BasicBlock(16, 1)
		b.BasicBlock(32, 2).BasicBlock(32, 1)
		b.GlobalAvgPool().Dense(cfg.Classes)
	case VGG16:
		// VGG family: stacked 3×3 conv pairs with pooling, then a dense
		// classifier with dropout. The final stage keeps 2×2 spatial
		// resolution so the classifier sees 192 features.
		b.Conv(12, 3, 1, 1).ReLU().Conv(12, 3, 1, 1).ReLU().MaxPool(2). // 12×4×4
										Conv(24, 3, 1, 1).ReLU().Conv(24, 3, 1, 1).ReLU().MaxPool(2). // 24×2×2
										Conv(48, 3, 1, 1).ReLU().Conv(48, 3, 1, 1).ReLU().            // 48×2×2
										Flatten().Dense(64).ReLU().Dropout(0.2).Dense(cfg.Classes)
	case ResNet50:
		// ResNet-50 family: bottleneck residual blocks.
		b.Conv(8, 3, 1, 1).BN().ReLU()
		b.BottleneckBlock(4, 16, 1).BottleneckBlock(4, 16, 1)
		b.BottleneckBlock(8, 32, 2).BottleneckBlock(8, 32, 1)
		b.GlobalAvgPool().Dense(cfg.Classes)
	}
	return b.Build()
}
