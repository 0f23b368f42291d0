package data

import "crossbow/internal/nn"

// ForModel returns the synthetic stand-in dataset for one of the paper's
// benchmarks at trainable scale. Sizes are chosen so that a full training
// run to the paper's accuracy targets completes in seconds on a CPU while
// preserving the redundancy structure (many noisy samples per class) that
// drives the batch-size/statistical-efficiency trade-off. noise tunes task
// difficulty; pass 0 for the default.
func ForModel(id nn.ModelID, seed uint64, noise float64) SynthConfig {
	cfg := nn.ScaledConfigs[id]
	n := noise
	scale := 1.0
	if n == 0 {
		// Noise and prototype scale are picked per benchmark so that the
		// baseline (S-SGD, small batch) reaches its accuracy target in
		// tens of epochs rather than one — the regime of Figure 9 — while
		// leaving headroom for the batch-size effects of Figure 3.
		switch id {
		case nn.LeNet:
			n, scale = 1.0, 0.50
		case nn.ResNet32:
			n, scale = 1.0, 0.31
		case nn.VGG16:
			n, scale = 1.0, 0.45
		case nn.ResNet50:
			n, scale = 1.0, 0.31
		default:
			n = 1.0
		}
	}
	return SynthConfig{
		Shape:      cfg.Input,
		Classes:    cfg.Classes,
		Train:      2048,
		Test:       512,
		Noise:      n,
		ProtoScale: scale,
		Seed:       seed,
	}
}

// Load synthesises the train/test pair for a benchmark model.
func Load(id nn.ModelID, seed uint64) (train, test *Dataset) {
	return Synthesize(ForModel(id, seed, 0))
}
