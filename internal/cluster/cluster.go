package cluster

import (
	"crossbow/internal/engine"
	"crossbow/internal/gpusim"
	"crossbow/internal/nn"
)

// Config describes a simulated multi-server training configuration.
type Config struct {
	Model nn.ModelID
	// Servers is the number of servers n (default 1, the paper's setting).
	Servers int
	// GPUsPerServer is g per server (default 1).
	GPUsPerServer int
	// LearnersPerGPU is m (default 1).
	LearnersPerGPU int
	// Batch is b, per learner (default 16).
	Batch int
	// TauLocal is the intra-server synchronisation period in iterations
	// (the engine's τ; 0 → 1, engine.TauNever disables).
	TauLocal int
	// TauGlobal is the cross-server averaging period in units of
	// intra-server synchronisations: servers exchange reference models
	// every TauGlobal-th global synchronisation (0 → 1). Looser τ_global
	// trades statistical efficiency for less network traffic, mirroring
	// how §5.5 relaxes τ within a server.
	TauGlobal int
	// Overlap lets synchronisation tasks of iteration N run concurrently
	// with learning tasks of iteration N+1, at both the intra-server tier
	// (Figure 8 f) and the cross-server tier.
	Overlap bool
	// Cost and Topo (per server) default to the paper-calibrated models.
	Cost gpusim.CostModel
	Topo gpusim.Topology
	// Net is the cross-server interconnect (default Ethernet10G).
	Net Interconnect
}

func (c *Config) fillDefaults() {
	if c.Servers == 0 {
		c.Servers = 1
	}
	if c.GPUsPerServer == 0 {
		c.GPUsPerServer = 1
	}
	if c.LearnersPerGPU == 0 {
		c.LearnersPerGPU = 1
	}
	if c.Batch == 0 {
		c.Batch = 16
	}
	if c.TauLocal == 0 {
		c.TauLocal = 1
	}
	if c.TauGlobal == 0 {
		c.TauGlobal = 1
	}
	if c.Cost == (gpusim.CostModel{}) {
		c.Cost = gpusim.DefaultCostModel()
	}
	if c.Topo == (gpusim.Topology{}) {
		c.Topo = gpusim.DefaultTopology(c.GPUsPerServer)
	}
	if c.Net == (Interconnect{}) {
		c.Net = Ethernet10G()
	}
}

// Engine executes hierarchical SMA iterations on the simulated cluster: one
// engine.Engine per server, all sharing a single discrete-event clock, plus
// per-server network streams carrying the cross-server average tasks.
type Engine struct {
	cfg     Config
	sim     *gpusim.Sim
	servers []*engine.Engine
	// netStreams[s] lives on server s's first device and plays the role of
	// the NIC: staging DMA, the network collective, and the broadcast of
	// the refreshed cluster average model. Empty on single-server runs.
	netStreams []*gpusim.Stream

	modelElems int64
	iter       int
	localSyncs int
}

// New builds a cluster engine. With Servers=1 it schedules exactly the work
// of a plain engine.Engine — the degenerate case the tests pin down.
func New(cfg Config) *Engine {
	cfg.fillDefaults()
	spec := nn.FullSpec(cfg.Model)
	c := &Engine{
		cfg:        cfg,
		sim:        gpusim.NewSim(cfg.Servers*cfg.GPUsPerServer, cfg.Cost.SMsPerDevice),
		modelElems: spec.ParamCount(),
	}
	for s := 0; s < cfg.Servers; s++ {
		c.servers = append(c.servers, engine.New(engine.Config{
			Model: cfg.Model, GPUs: cfg.GPUsPerServer,
			LearnersPerGPU: cfg.LearnersPerGPU, Batch: cfg.Batch,
			Tau: cfg.TauLocal, Overlap: cfg.Overlap,
			Cost: cfg.Cost, Topo: cfg.Topo,
			Sim: c.sim, DeviceOffset: s * cfg.GPUsPerServer,
		}))
	}
	if cfg.Servers > 1 {
		for s := 0; s < cfg.Servers; s++ {
			dev := c.sim.Device(s * cfg.GPUsPerServer)
			c.netStreams = append(c.netStreams, dev.NewStream())
		}
	}
	return c
}

// Sim exposes the shared simulator (for utilisation inspection).
func (c *Engine) Sim() *gpusim.Sim { return c.sim }

// K returns the total learner count n×g×m.
func (c *Engine) K() int { return c.cfg.Servers * c.cfg.GPUsPerServer * c.cfg.LearnersPerGPU }

func (c *Engine) modelBytes() int64 { return c.modelElems * 4 }

// ScheduleIteration wires one cluster iteration: every server schedules its
// own SMA iteration; when the iteration carried an intra-server global
// synchronisation and the τ_global period has elapsed, cross-server average
// tasks follow — per server, the network stream waits for the server's
// reference model to become consistent, stages it to the NIC, joins the
// cross-server all-reduce, and broadcasts the refreshed cluster average
// back; each server's next read of its average model gates on that
// completion, so with Overlap the exchange hides behind the next
// iteration's learning tasks.
func (c *Engine) ScheduleIteration() {
	c.iter++
	synced := false
	for _, srv := range c.servers {
		if srv.ScheduleIteration() {
			synced = true
		}
	}
	if !synced || c.cfg.Servers <= 1 {
		return
	}
	c.localSyncs++
	if c.localSyncs%max(1, c.cfg.TauGlobal) != 0 {
		return
	}

	// Stage each server's reference model onto its NIC once the server's
	// global synchronisation finished.
	staged := make([]*gpusim.Event, c.cfg.Servers)
	for s, srv := range c.servers {
		ns := c.netStreams[s]
		for _, ev := range srv.GlobalSyncDone() {
			ns.Wait(ev)
		}
		ns.Kernel(1, c.cfg.Cost.TransferUS(c.modelBytes())) // device-to-host server model
		staged[s] = c.sim.NewEvent()
		ns.Record(staged[s])
	}
	// The collective cannot start before every server staged its model.
	xferUS := c.cfg.Net.AllReduceUS(c.modelBytes(), c.cfg.Servers)
	for s, srv := range c.servers {
		ns := c.netStreams[s]
		for _, ev := range staged {
			ns.Wait(ev)
		}
		if xferUS > 0 {
			ns.Kernel(1, xferUS) // cross-server all-reduce
		}
		ns.Kernel(1, c.cfg.Cost.TransferUS(c.modelBytes()))   // host-to-device cluster average
		ns.Kernel(2, c.cfg.Cost.VectorKernelUS(c.modelElems)) // server average update
		done := c.sim.NewEvent()
		ns.Record(done)
		srv.Gate(done)
	}
}

// RunIterations schedules and executes n cluster iterations, returning the
// elapsed virtual time in microseconds.
func (c *Engine) RunIterations(n int) float64 {
	start := c.sim.Now()
	for i := 0; i < n; i++ {
		c.ScheduleIteration()
	}
	c.sim.Run()
	return c.sim.Now() - start
}

// Throughput runs n iterations and returns training throughput in images
// per second across the whole cluster.
func (c *Engine) Throughput(n int) float64 {
	us := c.RunIterations(n)
	if us <= 0 {
		return 0
	}
	images := float64(n * c.K() * c.cfg.Batch)
	return images / (us / 1e6)
}

// EpochSeconds returns the virtual duration of one epoch over nSamples at
// the cluster's measured throughput.
func (c *Engine) EpochSeconds(nSamples, measureIters int) float64 {
	tp := c.Throughput(measureIters)
	if tp <= 0 {
		return 0
	}
	return float64(nSamples) / tp
}
