package autotune

import (
	"sync"

	"crossbow/internal/cluster"
	"crossbow/internal/engine"
	"crossbow/internal/nn"
)

// Config configures a tuning run.
type Config struct {
	Model nn.ModelID
	GPUs  int // per server
	Batch int
	// Servers extends tuning to the cluster plane: above 1, candidate
	// learner counts are measured on the cluster engine, so the chosen m
	// accounts for cross-server synchronisation pressure — a slow
	// interconnect lengthens the synchronised iteration and shifts where
	// the marginal learner stops paying off. Zero or 1 tunes the paper's
	// single-server setting.
	Servers int
	// TauGlobal is the cluster's inter-server averaging period (0 → 1).
	TauGlobal int
	// Net is the cross-server interconnect cost model (zero value selects
	// the cluster default).
	Net cluster.Interconnect
	// Threshold is Alg 2's τ as a fractional throughput improvement: a
	// new learner is kept only if throughput grows by more than this
	// fraction. Zero selects 0.05.
	Threshold float64
	// WindowIters is the number of iterations measured per decision.
	WindowIters int
	// MemoryBytes is per-GPU memory; zero selects 12 GB (the paper's
	// Titan X).
	MemoryBytes int64
	// MaxLearners bounds the search; zero selects 8.
	MaxLearners int
}

func (c *Config) fillDefaults() {
	if c.GPUs == 0 {
		c.GPUs = 1
	}
	if c.Batch == 0 {
		c.Batch = 16
	}
	if c.Threshold == 0 {
		c.Threshold = 0.05
	}
	if c.WindowIters == 0 {
		c.WindowIters = 20
	}
	if c.MemoryBytes == 0 {
		c.MemoryBytes = 12 << 30
	}
	if c.MaxLearners == 0 {
		c.MaxLearners = 8
	}
}

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

// Tune runs Algorithm 2 to convergence and returns the chosen learner
// count. Each candidate m is measured over a fresh simulated window (the
// paper resizes the running system; measuring windows on the simulator is
// equivalent and keeps runs independent).
func Tune(cfg Config) *Result {
	cfg.fillDefaults()
	spec := nn.FullSpec(cfg.Model)
	res := &Result{
		MemoryCap:       MemoryCap(spec, cfg.Batch, cfg.MemoryBytes),
		PerLearnerBytes: LearnerFootprint(spec, cfg.Batch),
	}
	maxM := cfg.MaxLearners
	if res.MemoryCap < maxM {
		maxM = res.MemoryCap
	}

	measure := func(m int) float64 {
		if cfg.Servers > 1 {
			return cluster.New(cluster.Config{
				Model: cfg.Model, Servers: cfg.Servers,
				GPUsPerServer: cfg.GPUs, LearnersPerGPU: m,
				Batch: cfg.Batch, TauGlobal: cfg.TauGlobal,
				Overlap: true, Net: cfg.Net,
			}).Throughput(cfg.WindowIters)
		}
		e := engine.New(engine.Config{
			Model: cfg.Model, GPUs: cfg.GPUs, LearnersPerGPU: m,
			Batch: cfg.Batch, Overlap: true,
		})
		return e.Throughput(cfg.WindowIters)
	}

	m := 1
	prev := measure(m)
	res.History = append(res.History, Decision{M: m, Throughput: prev})
	for m < maxM {
		next := measure(m + 1)
		res.History = append(res.History, Decision{M: m + 1, Throughput: next})
		if next-prev > cfg.Threshold*prev {
			// Significant improvement: keep the extra learner (line 6).
			m++
			prev = next
			continue
		}
		// No significant improvement (or a decrease): revert to the
		// previous count (line 7) and stop at the peak.
		break
	}
	res.Chosen = m
	return res
}
