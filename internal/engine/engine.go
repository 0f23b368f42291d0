package engine

import (
	"crossbow/internal/gpusim"
	"crossbow/internal/nn"
)

// Config describes a simulated training configuration.
type Config struct {
	Model          nn.ModelID
	GPUs           int // g
	LearnersPerGPU int // m
	Batch          int // b, per learner
	// Tau synchronises every Tau iterations; 0 → 1; TauNever disables
	// synchronisation entirely (the τ=∞ column of Figure 17).
	Tau int
	// Overlap lets global synchronisation tasks of iteration N run
	// concurrently with learning tasks of iteration N+1 (Figure 8 f).
	// Disabling it inserts the global execution barrier the paper argues
	// against (§4.2).
	Overlap bool
	// Cost and Topo default to the paper-calibrated models when zero.
	Cost gpusim.CostModel
	Topo gpusim.Topology
	// Sim optionally supplies an external simulator to schedule on. The
	// cluster plane (internal/cluster) builds one simulator spanning every
	// server's devices and constructs one engine per server on it, so all
	// servers share a single virtual clock. Nil creates a private simulator.
	Sim *gpusim.Sim
	// DeviceOffset is the index of this engine's first device within Sim
	// (only meaningful with an external Sim).
	DeviceOffset int
}

// TauNever disables synchronisation (τ = ∞).
const TauNever = -1

func (c *Config) fillDefaults() {
	if c.GPUs == 0 {
		c.GPUs = 1
	}
	if c.LearnersPerGPU == 0 {
		c.LearnersPerGPU = 1
	}
	if c.Batch == 0 {
		c.Batch = 16
	}
	if c.Tau == 0 {
		c.Tau = 1
	}
	if c.Cost == (gpusim.CostModel{}) {
		c.Cost = gpusim.DefaultCostModel()
	}
	if c.Topo == (gpusim.Topology{}) {
		c.Topo = gpusim.DefaultTopology(c.GPUs)
	}
}

// Engine executes SMA iterations on the simulated server.
type Engine struct {
	cfg  Config
	sim  *gpusim.Sim
	spec *nn.ModelSpec
	plan *gpusim.LearningTaskPlan

	learnStreams [][]*gpusim.Stream // [gpu][learner]
	syncStreams  []*gpusim.Stream   // [gpu]
	copyStreams  []*gpusim.Stream   // [gpu] DMA engine

	// globalSyncDone[g] is the event fired when GPU g's view of the
	// central average model is consistent for the current iteration.
	globalSyncDone []*gpusim.Event

	// Per-iteration event tables, reused: localDone[g][m] is learner m's
	// local synchronisation, aggDone[g] GPU g's intra-GPU aggregation, and
	// globalBufs alternate as globalSyncDone so the previous iteration's
	// stays readable while the next is wired.
	localDone  [][]*gpusim.Event
	aggDone    []*gpusim.Event
	globalBufs [2][]*gpusim.Event

	// gate, when set, delays the next read of the average model until the
	// event fires — the hook the cluster plane uses to chain cross-server
	// average tasks after this server's global synchronisation.
	gate *gpusim.Event

	iter       int
	modelElems int64
}

// New builds an engine for the configuration.
func New(cfg Config) *Engine {
	cfg.fillDefaults()
	spec := nn.FullSpec(cfg.Model)
	sim := cfg.Sim
	if sim == nil {
		sim = gpusim.NewSim(cfg.GPUs, cfg.Cost.SMsPerDevice)
	}
	e := &Engine{
		cfg:        cfg,
		sim:        sim,
		spec:       spec,
		plan:       cfg.Cost.PlanLearningTask(spec, cfg.Batch),
		modelElems: spec.ParamCount(),
		aggDone:    make([]*gpusim.Event, cfg.GPUs),
		globalBufs: [2][]*gpusim.Event{make([]*gpusim.Event, cfg.GPUs), make([]*gpusim.Event, cfg.GPUs)},
	}
	for g := 0; g < cfg.GPUs; g++ {
		dev := e.sim.Device(cfg.DeviceOffset + g)
		var ls []*gpusim.Stream
		for m := 0; m < cfg.LearnersPerGPU; m++ {
			ls = append(ls, dev.NewStream())
		}
		e.learnStreams = append(e.learnStreams, ls)
		e.syncStreams = append(e.syncStreams, dev.NewStream())
		e.copyStreams = append(e.copyStreams, dev.NewStream())
		e.localDone = append(e.localDone, make([]*gpusim.Event, cfg.LearnersPerGPU))
	}
	return e
}

// Sim exposes the underlying simulator (for utilisation inspection).
func (e *Engine) Sim() *gpusim.Sim { return e.sim }

// K returns the total learner count.
func (e *Engine) K() int { return e.cfg.GPUs * e.cfg.LearnersPerGPU }

// modelBytes returns the model size in bytes (float32).
func (e *Engine) modelBytes() int64 { return e.modelElems * 4 }

// ScheduleIteration wires one SMA iteration's tasks (Figure 8):
//
//   - per learner: input-batch DMA, then the learning task's kernels on the
//     learner stream, then the local synchronisation task (difference with
//     the GPU-local average model + replica update) on the same stream,
//     gated on the previous iteration's global synchronisation;
//   - per GPU: the global synchronisation task on the sync stream — intra-
//     GPU aggregation once all local syncs complete, then the inter-GPU
//     ring all-reduce;
//   - learning tasks of the next iteration start right after their
//     learner's local sync (overlap), or after global sync when Overlap is
//     off.
//
// It reports whether the iteration included global synchronisation, so an
// outer plane (internal/cluster) can chain cross-server average tasks.
func (e *Engine) ScheduleIteration() bool {
	cfg := e.cfg
	e.iter++
	syncing := cfg.Tau != TauNever && e.iter%max(1, cfg.Tau) == 0

	prevGlobal := e.globalSyncDone
	// The cluster gate is consumed by whichever tasks next read the average
	// model: this iteration's learning tasks without overlap, this
	// iteration's local synchronisation with overlap (non-sync iterations
	// never read it, so the gate survives until the next sync).
	gate := e.gate
	if !cfg.Overlap || syncing {
		e.gate = nil
	}
	batchBytes := e.spec.SampleBytes() * int64(cfg.Batch)

	for g := 0; g < cfg.GPUs; g++ {
		for m, st := range e.learnStreams[g] {
			// Input batch DMA on the copy engine, overlapped with compute
			// (§2.2); the learning task waits for its own batch only.
			inReady := e.sim.NewEvent()
			e.copyStreams[g].Kernel(1, e.cfg.Cost.TransferUS(batchBytes)) // host-to-device batch
			e.copyStreams[g].Record(inReady)

			// Host-side dispatch cost of the task scheduler (§4.3).
			st.Kernel(1, cfg.Cost.SchedulerOverheadUS)
			st.Wait(inReady)
			if !cfg.Overlap {
				if prevGlobal != nil {
					st.Wait(prevGlobal[g])
				}
				if gate != nil {
					st.Wait(gate)
				}
			}
			gpusim.EnqueueLearningTask(st, e.plan)

			if syncing {
				// Local synchronisation task (Figure 8 b): reads the
				// GPU-local average model — consistent only after the
				// previous iteration's global sync (Figure 8 d) and, on a
				// cluster, after the cross-server average that follows it.
				if cfg.Overlap {
					if prevGlobal != nil {
						st.Wait(prevGlobal[g])
					}
					if gate != nil {
						st.Wait(gate)
					}
				}
				st.Kernel(2, cfg.Cost.VectorKernelUS(e.modelElems))         // difference with the local average
				st.Kernel(2, cfg.Cost.VectorKernelUS(e.modelElems))         // replica update
				st.Kernel(1, cfg.Cost.SyncPerOpUS*float64(e.spec.NumOps())) // host coordination
				done := e.sim.NewEvent()
				st.Record(done)
				e.localDone[g][m] = done
			}
		}
	}

	if !syncing {
		e.globalSyncDone = nil
		return false
	}

	// Global synchronisation tasks (Figure 8 c): per GPU, aggregate the
	// local differences once all the GPU's local syncs are done, then the
	// GPUs jointly all-reduce; each GPU's average model becomes consistent
	// when its share of the ring completes.
	newGlobal := e.globalBufs[e.iter%2]
	// The ring cannot start before every GPU finished local aggregation:
	// collect per-GPU aggregation-done events and make every sync stream
	// wait on all of them.
	aggDone := e.aggDone
	for g := 0; g < cfg.GPUs; g++ {
		ss := e.syncStreams[g]
		for _, ev := range e.localDone[g] {
			ss.Wait(ev)
		}
		ss.Kernel(2, cfg.Cost.VectorKernelUS(e.modelElems)) // intra-GPU reduce
		aggDone[g] = e.sim.NewEvent()
		ss.Record(aggDone[g])
	}
	allReduce := e.cfg.Topo.AllReduceUS(e.modelBytes(), cfg.GPUs, cfg.Cost.TransferLatencyUS)
	for g := 0; g < cfg.GPUs; g++ {
		ss := e.syncStreams[g]
		for _, ev := range aggDone {
			ss.Wait(ev)
		}
		if allReduce > 0 {
			ss.Kernel(1, allReduce) // ring all-reduce
		}
		ss.Kernel(2, cfg.Cost.VectorKernelUS(e.modelElems)) // average model update
		newGlobal[g] = e.sim.NewEvent()
		ss.Record(newGlobal[g])
	}
	e.globalSyncDone = newGlobal
	return true
}

// GlobalSyncDone returns the per-GPU events of the most recently scheduled
// global synchronisation (nil when the last iteration did not synchronise).
// Each event fires when that GPU's view of the server's average model is
// consistent.
func (e *Engine) GlobalSyncDone() []*gpusim.Event { return e.globalSyncDone }

// Gate delays the next read of the average model — the next iteration's
// learning tasks without overlap, its local synchronisation tasks with
// overlap — until ev fires. The cluster plane gates each server on the
// completion of the cross-server average, mirroring at the server tier how
// learning tasks gate on the previous global synchronisation (Figure 8).
func (e *Engine) Gate(ev *gpusim.Event) { e.gate = ev }

// RunIterations schedules and executes n SMA iterations, returning the
// virtual time in microseconds from the engine's current clock to
// completion of all scheduled work.
func (e *Engine) RunIterations(n int) float64 {
	start := e.sim.Now()
	for i := 0; i < n; i++ {
		e.ScheduleIteration()
	}
	e.sim.Run()
	return e.sim.Now() - start
}

// Throughput runs n iterations and returns training throughput in images
// per second.
func (e *Engine) Throughput(n int) float64 {
	us := e.RunIterations(n)
	if us <= 0 {
		return 0
	}
	images := float64(n * e.K() * e.cfg.Batch)
	return images / (us / 1e6)
}

// EpochSeconds returns the virtual duration of one epoch over nSamples
// training samples at the engine's measured steady-state throughput,
// composing hardware time with the statistical plane's epoch counts.
func (e *Engine) EpochSeconds(nSamples int, measureIters int) float64 {
	tp := e.Throughput(measureIters)
	if tp <= 0 {
		return 0
	}
	return float64(nSamples) / tp
}
