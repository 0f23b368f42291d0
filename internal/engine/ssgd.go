package engine

import (
	"crossbow/internal/gpusim"
	"crossbow/internal/nn"
)

// SSGDEngine simulates the TensorFlow-style baseline (§2.3, Figure 1): one
// model replica per GPU, the aggregate batch partitioned across GPUs, a
// gradient all-reduce with a global barrier before every model update, and
// the heavier host-side dispatch of a general dataflow engine.
type SSGDEngine struct {
	cfg  SSGDConfig
	sim  *gpusim.Sim
	spec *nn.ModelSpec
	plan *gpusim.LearningTaskPlan

	streams []*gpusim.Stream
	copies  []*gpusim.Stream
	barrier []*gpusim.Event // previous iteration's update-done per GPU
}

// SSGDConfig configures the baseline simulation.
type SSGDConfig struct {
	Model nn.ModelID
	GPUs  int
	// AggregateBatch is the total batch per iteration, partitioned
	// equally across GPUs (Figure 2's parameter).
	AggregateBatch int
	// DispatchOverheadUS is the per-iteration host-side cost of the
	// baseline's dataflow dispatch. TensorFlow's per-step session overhead
	// is in the high hundreds of microseconds — the effect behind the
	// paper's LeNet result (§5.2), where ~1 ms learning tasks leave the
	// scheduler on the critical path. Zero selects the default.
	DispatchOverheadUS float64
	Cost               gpusim.CostModel
	Topo               gpusim.Topology
}

// DefaultDispatchOverheadUS is the baseline's per-iteration host dispatch
// cost. Crossbow's task engine pays CostModel.SchedulerOverheadUS (a few
// µs) per task instead.
const DefaultDispatchOverheadUS = 550

func (c *SSGDConfig) fillDefaults() {
	if c.GPUs == 0 {
		c.GPUs = 1
	}
	if c.AggregateBatch == 0 {
		c.AggregateBatch = 64 * c.GPUs
	}
	if c.DispatchOverheadUS == 0 {
		c.DispatchOverheadUS = DefaultDispatchOverheadUS
	}
	if c.Cost == (gpusim.CostModel{}) {
		c.Cost = gpusim.DefaultCostModel()
	}
	if c.Topo == (gpusim.Topology{}) {
		c.Topo = gpusim.DefaultTopology(c.GPUs)
	}
}

// NewSSGD builds the baseline engine.
func NewSSGD(cfg SSGDConfig) *SSGDEngine {
	cfg.fillDefaults()
	spec := nn.FullSpec(cfg.Model)
	perGPU := cfg.AggregateBatch / cfg.GPUs
	if perGPU < 1 {
		perGPU = 1
	}
	e := &SSGDEngine{
		cfg:  cfg,
		sim:  gpusim.NewSim(cfg.GPUs, cfg.Cost.SMsPerDevice),
		spec: spec,
		plan: cfg.Cost.PlanLearningTask(spec, perGPU),
	}
	for g := 0; g < cfg.GPUs; g++ {
		dev := e.sim.Device(g)
		e.streams = append(e.streams, dev.NewStream())
		e.copies = append(e.copies, dev.NewStream())
	}
	return e
}

// Sim exposes the underlying simulator (for utilisation inspection).
func (e *SSGDEngine) Sim() *gpusim.Sim { return e.sim }

// PerGPUBatch returns the batch partition size each GPU processes.
func (e *SSGDEngine) PerGPUBatch() int {
	b := e.cfg.AggregateBatch / e.cfg.GPUs
	if b < 1 {
		b = 1
	}
	return b
}

// scheduleIteration wires one S-SGD iteration: partition compute, gradient
// all-reduce (with barrier), replica update.
func (e *SSGDEngine) scheduleIteration() {
	cfg := e.cfg
	batchBytes := e.spec.SampleBytes() * int64(e.PerGPUBatch())
	modelBytes := e.spec.ParamCount() * 4

	gradDone := make([]*gpusim.Event, cfg.GPUs)
	for g := 0; g < cfg.GPUs; g++ {
		st := e.streams[g]
		// Baseline dispatch overhead on the critical path each iteration.
		st.Kernel(1, cfg.DispatchOverheadUS)
		if e.barrier != nil {
			// S-SGD lockstep: no GPU may start iteration N+1 before every
			// replica finished applying iteration N's aggregate gradient.
			for _, ev := range e.barrier {
				st.Wait(ev)
			}
		}
		inReady := e.sim.NewEvent()
		e.copies[g].Kernel(1, cfg.Cost.TransferUS(batchBytes)) // host-to-device batch
		e.copies[g].Record(inReady)
		st.Wait(inReady)
		gpusim.EnqueueLearningTask(st, e.plan)
		gradDone[g] = e.sim.NewEvent()
		st.Record(gradDone[g])
	}
	allReduce := cfg.Topo.AllReduceUS(modelBytes, cfg.GPUs, cfg.Cost.TransferLatencyUS)
	newBarrier := make([]*gpusim.Event, cfg.GPUs)
	for g := 0; g < cfg.GPUs; g++ {
		st := e.streams[g]
		for _, ev := range gradDone {
			st.Wait(ev)
		}
		if allReduce > 0 {
			st.Kernel(1, allReduce) // gradient all-reduce
		}
		st.Kernel(2, cfg.Cost.VectorKernelUS(e.spec.ParamCount())) // apply the update
		newBarrier[g] = e.sim.NewEvent()
		st.Record(newBarrier[g])
	}
	e.barrier = newBarrier
}

// RunIterations executes n iterations and returns elapsed virtual µs.
func (e *SSGDEngine) RunIterations(n int) float64 {
	start := e.sim.Now()
	for i := 0; i < n; i++ {
		e.scheduleIteration()
	}
	e.sim.Run()
	return e.sim.Now() - start
}

// Throughput runs n iterations and returns images per second.
func (e *SSGDEngine) Throughput(n int) float64 {
	us := e.RunIterations(n)
	if us <= 0 {
		return 0
	}
	images := float64(n * cfgBatch(e))
	return images / (us / 1e6)
}

// EpochSeconds returns the virtual duration of one epoch over nSamples.
func (e *SSGDEngine) EpochSeconds(nSamples, measureIters int) float64 {
	tp := e.Throughput(measureIters)
	if tp <= 0 {
		return 0
	}
	return float64(nSamples) / tp
}

func cfgBatch(e *SSGDEngine) int { return e.PerGPUBatch() * e.cfg.GPUs }
