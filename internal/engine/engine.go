package engine

import (
	"crossbow/internal/gpusim"
	"crossbow/internal/nn"
)

// Config describes a simulated training configuration: Servers servers of
// GPUs GPUs each, LearnersPerGPU learners a GPU. Kernels are priced by
// gpusim.DefaultCostModel and intra-server rings by gpusim.DefaultTopology.
type Config struct {
	Model nn.ModelID
	// Servers is the number of servers n (0 → 1, the paper's setting).
	Servers        int
	GPUs           int // g, per server (0 → 1)
	LearnersPerGPU int // m (0 → 1)
	Batch          int // b, per learner (0 → DefaultBatch)
	// Tau synchronises every Tau iterations within a server; 0 → 1;
	// TauNever disables synchronisation entirely (the τ=∞ column of
	// Figure 17).
	Tau int
	// TauGlobal is the cross-server averaging period in units of
	// intra-server synchronisations: servers exchange reference models
	// every TauGlobal-th global synchronisation (0 → 1). Looser τ_global
	// trades statistical efficiency for less network traffic, mirroring
	// how §5.5 relaxes τ within a server.
	TauGlobal int
	// Overlap lets synchronisation tasks of iteration N run concurrently
	// with learning tasks of iteration N+1 (Figure 8 f), at the
	// intra-server and the cross-server tier. Disabling it inserts the
	// global execution barrier the paper argues against (§4.2).
	Overlap bool
	// Net is the cross-server interconnect (zero → gpusim.Ethernet10G).
	Net gpusim.Interconnect
}

// TauNever disables synchronisation (τ = ∞).
const TauNever = -1

// DefaultBatch is the per-learner batch a zero Config.Batch selects.
const DefaultBatch = 16

// cost prices every kernel and transfer of the simulated engines.
var cost = gpusim.DefaultCostModel()

func (c *Config) fillDefaults() {
	if c.Servers == 0 {
		c.Servers = 1
	}
	if c.GPUs == 0 {
		c.GPUs = 1
	}
	if c.LearnersPerGPU == 0 {
		c.LearnersPerGPU = 1
	}
	if c.Batch == 0 {
		c.Batch = DefaultBatch
	}
	if c.Tau == 0 {
		c.Tau = 1
	}
	if c.TauGlobal == 0 {
		c.TauGlobal = 1
	}
	if c.Net == (gpusim.Interconnect{}) {
		c.Net = gpusim.Ethernet10G()
	}
}

// Engine executes SMA iterations on the simulated servers, all sharing one
// discrete-event clock. Each server runs the paper's two-tier
// synchronisation (Figure 8); with more than one server, per-server network
// streams add a third tier, the cross-server average tasks.
type Engine struct {
	cfg  Config
	sim  *gpusim.Sim
	topo gpusim.Topology
	spec *nn.ModelSpec
	plan *gpusim.LearningTaskPlan

	servers []server
	// netStreams[s] lives on server s's first device and plays the role of
	// the NIC: staging DMA, the network collective, and the broadcast of
	// the refreshed cluster average model. Empty on single-server runs.
	netStreams []*gpusim.Stream
	staged     []*gpusim.Event // [server], reused each cross-server round

	iter       int
	localSyncs int
	modelElems int64
}

// server is one server's streams and per-iteration event tables.
type server struct {
	learnStreams [][]*gpusim.Stream // [gpu][learner]
	syncStreams  []*gpusim.Stream   // [gpu]
	copyStreams  []*gpusim.Stream   // [gpu] DMA engine

	// globalSyncDone[g] is the event fired when GPU g's view of the
	// server's average model is consistent for the current iteration; nil
	// when the last iteration did not synchronise.
	globalSyncDone []*gpusim.Event

	// Per-iteration event tables, reused: localDone[g][m] is learner m's
	// local synchronisation, aggDone[g] GPU g's intra-GPU aggregation, and
	// globalBufs alternate as globalSyncDone so the previous iteration's
	// stays readable while the next is wired.
	localDone  [][]*gpusim.Event
	aggDone    []*gpusim.Event
	globalBufs [2][]*gpusim.Event

	// gate, when set, delays the server's next read of its average model
	// until the cross-server average that follows its global
	// synchronisation completes.
	gate *gpusim.Event
}

// New builds an engine for the configuration.
func New(cfg Config) *Engine {
	cfg.fillDefaults()
	spec := nn.FullSpec(cfg.Model)
	e := &Engine{
		cfg:        cfg,
		sim:        gpusim.NewSim(cfg.Servers*cfg.GPUs, cost.SMsPerDevice),
		topo:       gpusim.DefaultTopology(cfg.GPUs),
		spec:       spec,
		plan:       cost.PlanLearningTask(spec, cfg.Batch),
		servers:    make([]server, cfg.Servers),
		modelElems: spec.ParamCount(),
	}
	for s := range e.servers {
		srv := &e.servers[s]
		// One backing array holds aggDone and both globalBufs.
		evs := make([]*gpusim.Event, 3*cfg.GPUs)
		srv.aggDone = evs[:cfg.GPUs]
		srv.globalBufs = [2][]*gpusim.Event{evs[cfg.GPUs : 2*cfg.GPUs], evs[2*cfg.GPUs:]}
		for g := 0; g < cfg.GPUs; g++ {
			dev := e.sim.Device(s*cfg.GPUs + g)
			ls := make([]*gpusim.Stream, cfg.LearnersPerGPU)
			for m := range ls {
				ls[m] = dev.NewStream()
			}
			srv.learnStreams = append(srv.learnStreams, ls)
			srv.syncStreams = append(srv.syncStreams, dev.NewStream())
			srv.copyStreams = append(srv.copyStreams, dev.NewStream())
			srv.localDone = append(srv.localDone, make([]*gpusim.Event, cfg.LearnersPerGPU))
		}
	}
	if cfg.Servers > 1 {
		for s := 0; s < cfg.Servers; s++ {
			e.netStreams = append(e.netStreams, e.sim.Device(s*cfg.GPUs).NewStream())
		}
		e.staged = make([]*gpusim.Event, cfg.Servers)
	}
	return e
}

// Sim exposes the underlying simulator (for utilisation inspection).
func (e *Engine) Sim() *gpusim.Sim { return e.sim }

// K returns the total learner count n×g×m.
func (e *Engine) K() int { return e.cfg.Servers * e.cfg.GPUs * e.cfg.LearnersPerGPU }

// modelBytes returns the model size in bytes (float32).
func (e *Engine) modelBytes() int64 { return e.modelElems * 4 }

// scheduleIteration wires one SMA iteration: every server schedules its own
// iteration (scheduleServer); when that iteration carried an intra-server
// global synchronisation and the τ_global period has elapsed, cross-server
// average tasks follow — per server, the network stream waits for the
// server's reference model to become consistent, stages it to the NIC,
// joins the cross-server all-reduce, and broadcasts the refreshed cluster
// average back; each server's next read of its average model gates on that
// completion, so with Overlap the exchange hides behind the next
// iteration's learning tasks.
func (e *Engine) scheduleIteration() {
	e.iter++
	syncing := e.cfg.Tau != TauNever && e.iter%max(1, e.cfg.Tau) == 0
	for s := range e.servers {
		e.scheduleServer(&e.servers[s], syncing)
	}
	if !syncing || e.cfg.Servers == 1 {
		return
	}
	e.localSyncs++
	if e.localSyncs%max(1, e.cfg.TauGlobal) != 0 {
		return
	}

	// Stage each server's reference model onto its NIC once the server's
	// global synchronisation finished.
	for s := range e.servers {
		ns := e.netStreams[s]
		for _, ev := range e.servers[s].globalSyncDone {
			ns.Wait(ev)
		}
		ns.Kernel(1, cost.TransferUS(e.modelBytes())) // device-to-host server model
		e.staged[s] = e.sim.NewEvent()
		ns.Record(e.staged[s])
	}
	// The collective cannot start before every server staged its model.
	xferUS := e.cfg.Net.AllReduceUS(e.modelBytes(), e.cfg.Servers)
	for s := range e.servers {
		ns := e.netStreams[s]
		for _, ev := range e.staged {
			ns.Wait(ev)
		}
		if xferUS > 0 {
			ns.Kernel(1, xferUS) // cross-server all-reduce
		}
		ns.Kernel(1, cost.TransferUS(e.modelBytes()))   // host-to-device cluster average
		ns.Kernel(2, cost.VectorKernelUS(e.modelElems)) // server average update
		done := e.sim.NewEvent()
		ns.Record(done)
		e.servers[s].gate = done
	}
}

// scheduleServer wires one server's share of an SMA iteration (Figure 8):
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
func (e *Engine) scheduleServer(srv *server, syncing bool) {
	cfg := e.cfg
	prevGlobal := srv.globalSyncDone
	// The cross-server gate is consumed by whichever tasks next read the
	// average model: this iteration's learning tasks without overlap, this
	// iteration's local synchronisation with overlap (non-sync iterations
	// never read it, so the gate survives until the next sync).
	gate := srv.gate
	if !cfg.Overlap || syncing {
		srv.gate = nil
	}
	batchBytes := e.spec.SampleBytes() * int64(cfg.Batch)

	for g := 0; g < cfg.GPUs; g++ {
		for m, st := range srv.learnStreams[g] {
			// Input batch DMA on the copy engine, overlapped with compute
			// (§2.2); the learning task waits for its own batch only.
			inReady := e.sim.NewEvent()
			srv.copyStreams[g].Kernel(1, cost.TransferUS(batchBytes)) // host-to-device batch
			srv.copyStreams[g].Record(inReady)

			// Host-side dispatch cost of the task scheduler (§4.3).
			st.Kernel(1, cost.SchedulerOverheadUS)
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
				st.Kernel(2, cost.VectorKernelUS(e.modelElems))         // difference with the local average
				st.Kernel(2, cost.VectorKernelUS(e.modelElems))         // replica update
				st.Kernel(1, cost.SyncPerOpUS*float64(e.spec.NumOps())) // host coordination
				done := e.sim.NewEvent()
				st.Record(done)
				srv.localDone[g][m] = done
			}
		}
	}

	if !syncing {
		srv.globalSyncDone = nil
		return
	}

	// Global synchronisation tasks (Figure 8 c): per GPU, aggregate the
	// local differences once all the GPU's local syncs are done, then the
	// GPUs jointly all-reduce; each GPU's average model becomes consistent
	// when its share of the ring completes.
	newGlobal := srv.globalBufs[e.iter%2]
	// The ring cannot start before every GPU finished local aggregation:
	// collect per-GPU aggregation-done events and make every sync stream
	// wait on all of them.
	for g := 0; g < cfg.GPUs; g++ {
		ss := srv.syncStreams[g]
		for _, ev := range srv.localDone[g] {
			ss.Wait(ev)
		}
		ss.Kernel(2, cost.VectorKernelUS(e.modelElems)) // intra-GPU reduce
		srv.aggDone[g] = e.sim.NewEvent()
		ss.Record(srv.aggDone[g])
	}
	allReduce := e.topo.AllReduceUS(e.modelBytes(), cfg.GPUs, cost.TransferLatencyUS)
	for g := 0; g < cfg.GPUs; g++ {
		ss := srv.syncStreams[g]
		for _, ev := range srv.aggDone {
			ss.Wait(ev)
		}
		if allReduce > 0 {
			ss.Kernel(1, allReduce) // ring all-reduce
		}
		ss.Kernel(2, cost.VectorKernelUS(e.modelElems)) // average model update
		newGlobal[g] = e.sim.NewEvent()
		ss.Record(newGlobal[g])
	}
	srv.globalSyncDone = newGlobal
}

// RunIterations schedules and executes n SMA iterations, returning the
// virtual time in microseconds from the engine's current clock to
// completion of all scheduled work.
func (e *Engine) RunIterations(n int) float64 {
	start := e.sim.Now()
	for i := 0; i < n; i++ {
		e.scheduleIteration()
	}
	e.sim.Run()
	return e.sim.Now() - start
}

// Throughput runs n iterations and returns training throughput in images
// per second across every server.
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
