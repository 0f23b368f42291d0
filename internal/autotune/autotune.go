package autotune

import (
	"sync"

	"crossbow/internal/engine"
	"crossbow/internal/nn"
)

// Algorithm 2's fixed parameters: threshold is its τ as a fractional
// throughput improvement (a new learner is kept only if throughput grows by
// more than this fraction), windowIters the simulated iterations measured
// per decision, deviceMemory the per-GPU memory (the paper's 12 GB Titan X)
// and maxLearners the search bound.
const (
	threshold    = 0.05
	windowIters  = 20
	deviceMemory = 12 << 30
	maxLearners  = 8
)

// Decision records one Alg 2 step: the learner count tried and the
// throughput observed (images/s).
type Decision struct {
	M          int
	Throughput float64
}

// Result is the outcome of a tuning run.
type Result struct {
	// Chosen is the selected learners-per-GPU.
	Chosen int
	// MemoryCap is the maximum learner count device memory admits.
	MemoryCap int
	// PerLearnerBytes is the memory footprint of one learner (replica +
	// gradient + planned output buffers).
	PerLearnerBytes int64
	// History lists the decisions in order.
	History []Decision
}

// Per-model cache of live footprints: planning a full-scale network is
// cheap but not free, and Tune probes several batch sizes repeatedly.
var (
	footMu    sync.Mutex
	footCache = map[footKey]int64{}
)

type footKey struct {
	model nn.ModelID
	batch int
}

// LearnerFootprint returns the per-learner GPU memory demand for a model at
// a batch size: model weights + gradients (contiguous, §4.4) plus the
// planned task arena (§4.5). The arena size comes from the *live* memory
// plan — the layer library's real dataflow at full scale, conv lowering
// scratch and all — so the memory cap reflects what a learner actually
// allocates.
func LearnerFootprint(spec *nn.ModelSpec, batch int) int64 {
	key := footKey{spec.Model, batch}
	footMu.Lock()
	if f, ok := footCache[key]; ok {
		footMu.Unlock()
		return f
	}
	footMu.Unlock()
	net := nn.BuildFull(spec.Model, batch)
	f := 2*int64(net.ParamSize())*4 + net.MemPlan().ArenaBytes()
	footMu.Lock()
	footCache[key] = f
	footMu.Unlock()
	return f
}

// MemoryCap returns how many learners fit in memBytes of device memory,
// reserving one model-sized allocation for the GPU's average model copy.
func MemoryCap(spec *nn.ModelSpec, batch int, memBytes int64) int {
	per := LearnerFootprint(spec, batch)
	avail := memBytes - spec.ParamCount()*4
	if avail < per {
		return 1 // the engine cannot run with zero learners
	}
	return int(avail / per)
}

// Tune runs Algorithm 2 to convergence on the simulated hardware plane and
// returns the chosen learner count. cfg is the shape to tune — servers,
// GPUs, batch, τ, τ_global, overlap, interconnect; its LearnersPerGPU is
// ignored. Each candidate m is measured on a fresh engine.New over
// windowIters iterations (the paper resizes the running system; measuring
// windows on the simulator is equivalent and keeps runs independent), and
// the candidates are walked by the same Online controller that tunes a live
// run.
func Tune(cfg engine.Config) *Result {
	if cfg.Batch == 0 {
		cfg.Batch = engine.DefaultBatch
	}
	spec := nn.FullSpec(cfg.Model)
	res := &Result{
		MemoryCap:       MemoryCap(spec, cfg.Batch, deviceMemory),
		PerLearnerBytes: LearnerFootprint(spec, cfg.Batch),
	}
	walk := NewOnline(1, min(maxLearners, res.MemoryCap), 0)
	for !walk.Settled() {
		cfg.LearnersPerGPU = walk.M()
		walk.Observe(engine.New(cfg).Throughput(windowIters))
	}
	res.Chosen, res.History = walk.M(), walk.History()
	return res
}
