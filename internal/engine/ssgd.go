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
	gpus, perGPU int
	sim          *gpusim.Sim
	topo         gpusim.Topology
	spec         *nn.ModelSpec
	plan         *gpusim.LearningTaskPlan

	streams []*gpusim.Stream
	copies  []*gpusim.Stream
	barrier []*gpusim.Event // previous iteration's update-done per GPU
}

// dispatchOverheadUS is the per-iteration host-side cost of the baseline's
// dataflow dispatch. TensorFlow's per-step session overhead is in the high
// hundreds of microseconds — the effect behind the paper's LeNet result
// (§5.2), where ~1 ms learning tasks leave the scheduler on the critical
// path. Crossbow's task engine pays CostModel.SchedulerOverheadUS (a few
// µs) per task instead.
const dispatchOverheadUS = 550

// NewSSGD builds the baseline engine on gpus GPUs (0 → 1), each processing
// an equal share of aggregateBatch per iteration (Figure 2's parameter; at
// least one sample a GPU).
func NewSSGD(model nn.ModelID, gpus, aggregateBatch int) *SSGDEngine {
	gpus = max(1, gpus)
	perGPU := max(1, aggregateBatch/gpus)
	spec := nn.FullSpec(model)
	e := &SSGDEngine{
		gpus:   gpus,
		perGPU: perGPU,
		sim:    gpusim.NewSim(gpus, cost.SMsPerDevice),
		topo:   gpusim.DefaultTopology(gpus),
		spec:   spec,
		plan:   cost.PlanLearningTask(spec, perGPU),
	}
	for g := 0; g < gpus; g++ {
		dev := e.sim.Device(g)
		e.streams = append(e.streams, dev.NewStream())
		e.copies = append(e.copies, dev.NewStream())
	}
	return e
}

// Sim exposes the underlying simulator (for utilisation inspection).
func (e *SSGDEngine) Sim() *gpusim.Sim { return e.sim }

// scheduleIteration wires one S-SGD iteration: partition compute, gradient
// all-reduce (with barrier), replica update.
func (e *SSGDEngine) scheduleIteration() {
	batchBytes := e.spec.SampleBytes() * int64(e.perGPU)
	modelBytes := e.spec.ParamCount() * 4

	gradDone := make([]*gpusim.Event, e.gpus)
	for g := 0; g < e.gpus; g++ {
		st := e.streams[g]
		// Baseline dispatch overhead on the critical path each iteration.
		st.Kernel(1, dispatchOverheadUS)
		if e.barrier != nil {
			// S-SGD lockstep: no GPU may start iteration N+1 before every
			// replica finished applying iteration N's aggregate gradient.
			for _, ev := range e.barrier {
				st.Wait(ev)
			}
		}
		inReady := e.sim.NewEvent()
		e.copies[g].Kernel(1, cost.TransferUS(batchBytes)) // host-to-device batch
		e.copies[g].Record(inReady)
		st.Wait(inReady)
		gpusim.EnqueueLearningTask(st, e.plan)
		gradDone[g] = e.sim.NewEvent()
		st.Record(gradDone[g])
	}
	allReduce := e.topo.AllReduceUS(modelBytes, e.gpus, cost.TransferLatencyUS)
	newBarrier := make([]*gpusim.Event, e.gpus)
	for g := 0; g < e.gpus; g++ {
		st := e.streams[g]
		for _, ev := range gradDone {
			st.Wait(ev)
		}
		if allReduce > 0 {
			st.Kernel(1, allReduce) // gradient all-reduce
		}
		st.Kernel(2, cost.VectorKernelUS(e.spec.ParamCount())) // apply the update
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
	images := float64(n * e.perGPU * e.gpus)
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
