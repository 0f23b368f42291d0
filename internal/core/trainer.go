package core

import (
	"fmt"
	"runtime"
	"time"

	"crossbow/internal/autotune"
	"crossbow/internal/data"
	"crossbow/internal/engine"
	"crossbow/internal/memplan"
	"crossbow/internal/metrics"
	"crossbow/internal/nn"
	"crossbow/internal/tensor"
)

// Algorithm selects the training/synchronisation algorithm.
type Algorithm string

// Available algorithms.
const (
	AlgoSMA        Algorithm = "sma"         // Algorithm 1 (flat)
	AlgoSMAHier    Algorithm = "sma-hier"    // §3.3 two-level SMA
	AlgoSMACluster Algorithm = "sma-cluster" // cluster plane: intra-/inter-server SMA, one rank of it
	AlgoSSGD       Algorithm = "ssgd"        // TensorFlow-style parallel S-SGD
	AlgoEASGD      Algorithm = "easgd"       // elastic averaging SGD
	AlgoASGD       Algorithm = "asgd"        // asynchronous SGD
)

// SchedulerMode selects the wall-clock task runtime's scheduling
// discipline (see internal/engine's Runtime).
type SchedulerMode string

// Scheduler modes.
const (
	// SchedLockstep joins all learners at a barrier every iteration and
	// applies the optimiser step before any of them starts the next task
	// (flat SMA: each learner applies one shard of it) — the paper's
	// baseline execution model and this trainer's bit-deterministic oracle.
	SchedLockstep SchedulerMode = "lockstep"
	// SchedFCFS is Crossbow's barrier-free schedule: learners bind staged
	// batches first-come-first-served, run ahead of the average model by up
	// to τ iterations, and synchronise through index-ordered contribution
	// rounds. Flat SMA, single server.
	SchedFCFS SchedulerMode = "fcfs"
)

// Schedule maps an epoch (1-based) to the learning rate for that epoch.
// Nil means the base rate throughout.
type Schedule func(epoch int, base float32) float32

// DefaultLearnRate returns a stable per-model base learning rate for the
// scaled benchmarks. The paper likewise uses per-model rates (§5.1,
// Figure 9: γ=0.1 for the ResNets and VGG, γ=0.001 for LeNet).
func DefaultLearnRate(id nn.ModelID) float32 {
	switch id {
	case nn.LeNet:
		return 0.02
	case nn.VGG16:
		return 0.05
	default:
		return 0.1
	}
}

// StepDecay returns a schedule multiplying the rate by factor at each of
// the given epochs (the §5.1 recipes: ResNet-32 ×0.1 at epochs 80 and 120;
// VGG ×0.5 every 20 epochs is MultiStep with period).
func StepDecay(factor float32, at ...int) Schedule {
	return func(epoch int, base float32) float32 {
		lr := base
		for _, e := range at {
			if epoch >= e {
				lr *= factor
			}
		}
		return lr
	}
}

// PeriodicDecay halves-style decay: multiply by factor every period epochs.
func PeriodicDecay(factor float32, period int) Schedule {
	return func(epoch int, base float32) float32 {
		lr := base
		for e := period; e <= epoch; e += period {
			lr *= factor
		}
		return lr
	}
}

// TrainConfig configures a statistical-efficiency training run.
type TrainConfig struct {
	Model           nn.ModelID
	Algo            Algorithm
	GPUs            int // g, per server
	LearnersPerGPU  int // m
	BatchPerLearner int // b
	LearnRate       float32
	Momentum        float32 // µ (SMA: on the average model; S-SGD: Eq. 3)
	// LocalMomentum is momentum inside SMA/EA-SGD learners. Algorithm 1
	// applies momentum to the central average model only, so the default
	// is 0; the released system also supports momentum in the solver.
	LocalMomentum float32
	Alpha         float32 // SMA/EA-SGD correction constant; 0 → 1/k
	Tau           int     // synchronisation period; 0 → 1
	// TauGlobal is the cluster plane's inter-server averaging period in
	// units of intra-server synchronisations (AlgoSMACluster only; 0 → 1).
	TauGlobal int
	// ExchangeRetries bounds back-to-back retries of a fault-aborted
	// global exchange (AlgoSMACluster only; 0 → 2, negative → no
	// retries). See ClusterSMAConfig.ExchangeRetries.
	ExchangeRetries int
	MaxEpochs       int
	TargetAcc       float64 // stop once the TTA window clears this; 0 → run MaxEpochs
	Seed            uint64
	DataNoise       float64 // 0 → benchmark default
	Schedule        Schedule
	// RestartOnLRChange applies the §3.2 SMA restart whenever the
	// schedule changes the learning rate.
	RestartOnLRChange bool
	// EpochSeconds, if set, supplies the duration of one epoch (e.g. from
	// the hardware simulator) so the result's time axis is hardware time;
	// otherwise epochs are timestamped by index.
	EpochSeconds float64
	// TrainSamples/TestSamples override the benchmark dataset sizes
	// (needed when the aggregate batch k×b approaches the default 2048-
	// sample training set). Zero keeps the defaults. Test accuracy is
	// measured over the first ⌊TestSamples/128⌋·128 test samples; a
	// remainder beyond the last multiple of 128 is never evaluated (a test
	// set of fewer than 128 samples is evaluated whole).
	TrainSamples int
	TestSamples  int
	// Scheduler selects the task runtime's scheduling mode: SchedLockstep
	// (default, bit-deterministic) or SchedFCFS (barrier-free; flat SMA on
	// a single server only).
	Scheduler SchedulerMode
	// Prefetch is the staged-batch depth per learner in the input
	// pipeline's circular buffer; minimum 1 (0 → 2, double buffering as
	// in §4.5).
	Prefetch int
	// AutoTuneLearners runs Algorithm 2 online: the run starts with one
	// learner per GPU and the learner count adapts to measured wall-clock
	// throughput between epochs, resizing the replica pool with the §3.2
	// restart semantics. Requires AlgoSMA on a single server;
	// LearnersPerGPU is ignored.
	AutoTuneLearners bool
	// MaxLearnersPerGPU caps online tuning (0 → 4).
	MaxLearnersPerGPU int
	// MemoryBudget bounds the shared activation pool (§4.5) in bytes:
	// learners block for task buffers when granting another planned arena
	// would exceed it (one task is always admitted, so any budget makes
	// progress — surplus learners trade waiting for footprint). Zero
	// selects the default, (kernel worker budget + 1) planned arenas:
	// demand beyond available compute parallelism is waste, so the pool
	// never needs to grow past it.
	MemoryBudget int64
	// PublishEvery, with OnSnapshot set, publishes a versioned snapshot of
	// the central model every PublishEvery iterations, rounded up to the
	// enclosing synchronisation round — snapshots are cut only at round
	// boundaries, where the model is stable in both scheduling modes (see
	// Snapshot). Zero disables publishing.
	PublishEvery int
	// OnSnapshot receives each published snapshot. It runs inside the
	// runtime's Publish window — under either scheduler on the goroutine of
	// the learner that completed the round, with the other learners held
	// back — so it must be quick and must not call back into the trainer;
	// hand the snapshot off (e.g. to a serving engine's UpdateModel) and
	// return.
	OnSnapshot func(Snapshot)
	// GlobalExchange is the inter-server tier of AlgoSMACluster, which
	// requires it: this Train call runs ONE server's GPUs×LearnersPerGPU
	// learners — one rank of the cluster — and every τ_global local
	// synchronisations the server reference model is all-reduced with the
	// other ranks through this exchanger (see DistClusterSMA): a Loopback
	// rank when the cluster lives in one process, the TCP transport when
	// it spans several.
	GlobalExchange GlobalExchanger
	// OverlapGlobal launches each global exchange asynchronously at the
	// τ_global boundary and folds the completed sum in one iteration
	// later, hiding the network round-trip behind the next iteration's
	// forward/backward computation. The trajectory is bit-identical to
	// the synchronous exchange (the fold happens before any state the
	// exchange touches is read again; see DistClusterSMA.Drain). Requires
	// GlobalExchange; exchangers without an asynchronous path fall back
	// to the synchronous round.
	OverlapGlobal bool
	// InitModel, if non-nil, overrides the seed-derived initial model w0
	// (it must match the model's parameter count). A node rejoining a
	// cluster warm-starts from a peer's snapshot this way.
	InitModel []float32
	// ShuffleSeed, if non-zero, overrides the input pipeline's shuffle
	// seed (default Seed+21). Distributed nodes derive it from their rank
	// so every server trains on a differently-ordered batch stream while
	// sharing the same model seed.
	ShuffleSeed uint64
}

// K returns the run's learner count g×m (on a cluster run: this rank's).
func (c TrainConfig) K() int { return c.GPUs * c.LearnersPerGPU }

func (c *TrainConfig) fillDefaults() {
	if c.GPUs == 0 {
		c.GPUs = 1
	}
	if c.LearnersPerGPU == 0 {
		c.LearnersPerGPU = 1
	}
	if c.BatchPerLearner == 0 {
		c.BatchPerLearner = 16
	}
	if c.LearnRate == 0 {
		c.LearnRate = DefaultLearnRate(c.Model)
	}
	if c.Tau == 0 {
		c.Tau = 1
	}
	if c.MaxEpochs == 0 {
		c.MaxEpochs = 30
	}
	if c.Algo == "" {
		c.Algo = AlgoSMA
	}
	if c.EpochSeconds == 0 {
		c.EpochSeconds = 1
	}
	if c.Scheduler == "" {
		c.Scheduler = SchedLockstep
	}
	if c.Prefetch < 1 {
		c.Prefetch = 2
	}
	if c.MaxLearnersPerGPU < 1 {
		c.MaxLearnersPerGPU = 4
	}
}

// validate rejects scheduler/algorithm combinations the runtime cannot
// honour. Called after fillDefaults.
func (c *TrainConfig) validate() {
	if c.Scheduler != SchedLockstep && c.Scheduler != SchedFCFS {
		panic(fmt.Sprintf("core: unknown scheduler %q", c.Scheduler))
	}
	if c.Scheduler == SchedFCFS && c.Algo != AlgoSMA {
		panic(fmt.Sprintf("core: the fcfs scheduler requires AlgoSMA (got %q)", c.Algo))
	}
	if c.AutoTuneLearners && c.Algo != AlgoSMA {
		panic(fmt.Sprintf("core: online learner tuning requires AlgoSMA (got %q)", c.Algo))
	}
	// The cluster algorithm and an exchanger come together: either both or
	// neither. (FCFS and online tuning, requiring AlgoSMA, are thereby
	// single-server.)
	if (c.Algo == AlgoSMACluster) != (c.GlobalExchange != nil) {
		panic(fmt.Sprintf("core: AlgoSMACluster and a GlobalExchange require each other (got %q, exchange set: %v)", c.Algo, c.GlobalExchange != nil))
	}
	if c.InitModel != nil && c.GlobalExchange == nil {
		panic("core: InitModel is only meaningful with a GlobalExchange (snapshot-seeded rejoin)")
	}
	if c.OverlapGlobal && c.GlobalExchange == nil {
		panic("core: OverlapGlobal requires a GlobalExchange")
	}
}

// Result is the outcome of a training run.
type Result struct {
	Series         []metrics.EpochPoint
	K              int
	EpochsToTarget int // -1 if the target was not reached
	FinalAccuracy  float64
	Model          []float32 // the trained (central/global) model
	// Sched is the scheduling mode the run executed with.
	Sched SchedulerMode
	// Wall records each epoch's measured wall-clock duration and training
	// throughput. The Series time axis stays simulator-driven
	// (EpochSeconds) so statistical results remain comparable across
	// schedulers; Wall is the real hardware-efficiency measurement.
	Wall []metrics.WallPoint
	// RuntimeStats reports the task runtime's scheduling statistics for
	// the final learner-count phase.
	RuntimeStats engine.RuntimeStats
	// SeqLog is the assignment log of the final phase: per learner, the
	// staged-batch sequence numbers it consumed, in consumption order.
	// Under FCFS this is the run's only timing-dependent artefact — the
	// trajectory is bit-reproducible given the log (see ReplayFCFS).
	SeqLog [][]int
	// TuneHistory lists the online Algorithm 2 decisions when
	// AutoTuneLearners was set. Decision.M is learners per GPU, the same
	// unit the offline tuner reports.
	TuneHistory []autotune.Decision
	// Mem reports the live memory plane: the planned per-task arena, the
	// shared pool's behaviour, and GC/allocation deltas over the epoch
	// loop.
	Mem metrics.MemoryStats
}

// stepper is what the trainer needs of an optimiser: the per-iteration
// update, the model it trains (the central average model for SMA and
// EA-SGD, the global model for S-SGD and A-SGD; a live slice), and the
// learning-rate hook of the schedule. A new optimiser implements these three
// and, if it has them, the two optional capabilities below.
type stepper interface {
	Step(ws, gs [][]float32)
	Average() []float32
	SetLearnRate(lr float32)
}

// restart applies the §3.2 restart on optimisers that have one (the SMA
// family); the baselines keep training.
func restart(s stepper, ws [][]float32) {
	if r, ok := s.(interface{ Restart(ws [][]float32) }); ok {
		r.Restart(ws)
	}
}

// drainExchange folds any in-flight overlapped global exchange before the
// central model is read (evaluation, snapshots, the final result). Only
// DistClusterSMA with OverlapGlobal has anything in flight.
func drainExchange(s stepper) {
	if d, ok := s.(interface{ Drain() }); ok {
		d.Drain()
	}
}

// trainEnv carries one training run's long-lived pieces: datasets, the
// replica pool (networks, weights, gradients), the evaluation network and
// the input pipeline. The optimiser and task runtime are phase-scoped —
// online tuning rebuilds them when the learner count changes.
type trainEnv struct {
	cfg         *TrainConfig
	train, test *data.Dataset
	masterRNG   *tensor.RNG
	nets        []*nn.Network
	ws, gs      [][]float32
	w0          []float32
	pipe        *data.Pipeline
	evalNet     *nn.Network
	evalGrad    []float32
	evalBatch   int
	es          *evalScratch

	// The live memory plane (§4.5): all learners draw their task arenas
	// from one shared pool, keyed by the networks' identical plan layout;
	// taskBufs[j] is learner j's checked-out arena while its task runs.
	memPool    *memplan.OnlinePlanner
	taskBufs   []*memplan.Buffer
	planKey    string
	arenaElems int

	// pub cuts versioned model snapshots from the runtime's Publish
	// window (nil when TrainConfig.PublishEvery is unset).
	pub *snapshotPublisher
}

// newTrainEnv builds a run's long-lived pieces for k learners: datasets,
// the replica pool initialised from the seed-derived w0, and the
// evaluation network. Both Train and ReplayFCFS construct their runs
// through this one function, so the RNG streams (masterRNG seed+7, w0
// seed+13, eval seed+99) and build order can never diverge between a live
// run and its replay.
func newTrainEnv(cfg *TrainConfig, k int) *trainEnv {
	dataCfg := data.ForModel(cfg.Model, cfg.Seed, cfg.DataNoise)
	if cfg.TrainSamples > 0 {
		dataCfg.Train = cfg.TrainSamples
	}
	if cfg.TestSamples > 0 {
		dataCfg.Test = cfg.TestSamples
	}
	e := &trainEnv{cfg: cfg, masterRNG: tensor.NewRNG(cfg.Seed + 7)}
	e.train, e.test = data.Synthesize(dataCfg)

	// Learner networks and replicas (the replica pool).
	for j := 0; j < k; j++ {
		net := nn.BuildScaled(cfg.Model, cfg.BatchPerLearner, e.masterRNG.Split())
		e.nets = append(e.nets, net)
	}
	e.w0 = e.nets[0].Init(tensor.NewRNG(cfg.Seed + 13))
	if cfg.InitModel != nil {
		if len(cfg.InitModel) != len(e.w0) {
			panic(fmt.Sprintf("core: InitModel has %d parameters, model needs %d", len(cfg.InitModel), len(e.w0)))
		}
		copy(e.w0, cfg.InitModel)
	}
	for j := 0; j < k; j++ {
		e.ws = append(e.ws, append([]float32(nil), e.w0...))
		e.gs = append(e.gs, make([]float32, len(e.w0)))
		e.nets[j].Bind(e.ws[j], e.gs[j])
	}

	// Evaluation network over the central model. It evaluates at quiescence
	// with a different batch size (different plan key), so it keeps a
	// private arena instead of cycling through the task pool. It never
	// trains, so it runs the fused conv→BN→ReLU epilogues over a
	// forward-only arena: fusion is bit-identical to the unfused forward
	// (nn/fuse.go, TestFusedPredictBitIdentical).
	_, e.evalBatch = evalSizes(e.test.Len())
	e.evalNet = nn.BuildScaled(cfg.Model, e.evalBatch, tensor.NewRNG(cfg.Seed+99))
	e.evalNet.FuseInference()
	e.evalNet.AttachInferenceArena(tensor.NewArena(e.evalNet.InferPlan().ArenaElems))
	e.evalGrad = make([]float32, len(e.w0))
	e.es = newEvalScratch(e.evalBatch, e.test.Shape)

	// Shared task-arena pool: every learner network has the identical
	// layer stack and batch size, hence the identical plan key, so their
	// task arenas are interchangeable (§4.5 sharing). Plans are computed
	// up front for the whole pool — planning is setup work, and keeping it
	// out of the epoch loop keeps the steady-state allocation count clean.
	for _, net := range e.nets {
		net.MemPlan()
	}
	plan := e.nets[0].MemPlan()
	e.planKey = plan.Key()
	e.arenaElems = plan.ArenaElems
	e.memPool = memplan.NewOnlinePlanner()
	e.memPool.SetBudget(e.poolBudget())
	e.taskBufs = make([]*memplan.Buffer, k)
	return e
}

// poolBudget resolves the activation-pool budget: the configured
// MemoryBudget, or (worker budget + 1) planned arenas by default.
func (e *trainEnv) poolBudget() int64 {
	if e.cfg.MemoryBudget > 0 {
		return e.cfg.MemoryBudget
	}
	return int64(tensor.WorkerBudget()+1) * int64(e.arenaElems) * 4
}

// growLearners extends the replica pool to k learners, initialising new
// replicas from model (§3.2 restart semantics: new learners start at the
// central average model). Grown learners share the existing task-arena
// pool — resizing never replicates activation memory up front.
func (e *trainEnv) growLearners(k int, model []float32) {
	for j := len(e.nets); j < k; j++ {
		net := nn.BuildScaled(e.cfg.Model, e.cfg.BatchPerLearner, e.masterRNG.Split())
		e.nets = append(e.nets, net)
		e.ws = append(e.ws, append([]float32(nil), model...))
		e.gs = append(e.gs, make([]float32, len(model)))
		e.nets[j].Bind(e.ws[j], e.gs[j])
		e.nets[j].MemPlan() // plan at resize time, not on the first task
	}
	for len(e.taskBufs) < k {
		e.taskBufs = append(e.taskBufs, nil)
	}
}

// iterPerEpoch returns the joined iterations per epoch at k learners (each
// iteration consumes k batches).
func (e *trainEnv) iterPerEpoch(k int) int {
	it := (e.train.Len() / e.cfg.BatchPerLearner) / k
	if it == 0 {
		it = 1
	}
	return it
}

// buildOpt constructs the optimiser for k learners from initial model w0.
func buildOpt(cfg *TrainConfig, w0 []float32, k int, stateRanges [][2]int) stepper {
	smaCfg := SMAConfig{
		LearnRate: cfg.LearnRate, Momentum: cfg.Momentum,
		LocalMomentum: cfg.LocalMomentum,
		Alpha:         cfg.Alpha, Tau: cfg.Tau,
		StateRanges: stateRanges,
	}
	switch cfg.Algo {
	case AlgoSMA:
		return NewSMA(smaCfg, w0, k)
	case AlgoSMAHier:
		return NewHierarchicalSMA(smaCfg, w0, GroupsFor(cfg.GPUs, cfg.LearnersPerGPU))
	case AlgoSMACluster:
		// This run is one server of the cluster; the global tier runs over
		// the exchanger.
		return NewDistClusterSMA(ClusterSMAConfig{
			SMAConfig: smaCfg, TauGlobal: cfg.TauGlobal,
			ExchangeRetries: cfg.ExchangeRetries,
			OverlapGlobal:   cfg.OverlapGlobal,
		}, w0, k, cfg.GlobalExchange)
	case AlgoSSGD:
		s := NewSSGD(cfg.LearnRate, cfg.Momentum, w0)
		s.StateRanges = stateRanges
		return s
	case AlgoEASGD:
		ea := NewEASGD(cfg.LearnRate, cfg.Alpha, cfg.Tau, k, w0)
		ea.LocalMomentum = cfg.LocalMomentum
		return ea
	case AlgoASGD:
		a := NewASGD(cfg.LearnRate, w0)
		a.StateRanges = stateRanges
		return a
	}
	panic(fmt.Sprintf("core: unknown algorithm %q", cfg.Algo))
}

// buildRuntime wires the task runtime for one learner-count phase.
// firstSeq is the pipeline position the phase starts at (non-zero after an
// online-autotuning resize). The runtime owns scheduling only; all
// optimiser math stays here, expressed as the closures the two modes
// need.
func (e *trainEnv) buildRuntime(opt stepper, k, firstSeq int, held map[int]*data.Slot) *engine.Runtime {
	rc := engine.RuntimeConfig{
		Learners: k,
		Tau:      e.cfg.Tau,
		Pipeline: e.pipe,
		FirstSeq: firstSeq,
		Held:     held,
		Task: func(j int, s *data.Slot) float64 {
			tensor.ZeroSlice(e.gs[j])
			return e.nets[j].LossAndGrad(s.X, s.Labels)
		},
		// Each task executes against a planned arena checked out of the
		// shared pool for exactly the task's duration (§4.5): learners
		// waiting at barriers, round gates or the budget hold no task
		// memory, so the pool's footprint tracks concurrency, not k.
		AcquireTask: func(j int) {
			b := e.memPool.Acquire(e.planKey, int64(e.arenaElems)*4, 1)
			e.taskBufs[j] = b
			e.nets[j].AttachArena(tensor.ArenaOf(b.Data))
		},
		ReleaseTask: func(j int) {
			e.memPool.Release(e.taskBufs[j])
			e.taskBufs[j] = nil
		},
		Publish: e.pub.hook(opt),
	}
	switch e.cfg.Scheduler {
	case SchedFCFS:
		sma := opt.(*SMA) // validate() guarantees AlgoSMA
		corr := make([][]float32, k)
		for j := range corr {
			corr[j] = make([]float32, len(e.w0))
		}
		rc.Mode = engine.ModeFCFS
		rc.LocalStep = func(j int) { sma.LocalStep(j, e.ws[j], e.gs[j]) }
		rc.Contribute = func(j int) { sma.ContributeStep(j, e.ws[j], e.gs[j], corr[j]) }
		rc.Apply = func() { sma.ApplyContributions(corr) }
	default:
		ws, gs := e.ws[:k], e.gs[:k]
		rc.Mode = engine.ModeLockstep
		if sma, ok := opt.(*SMA); ok {
			// Flat SMA steps in range form: the k learners, already on
			// their cores with their gradients just written, each apply
			// one smaBlock-aligned shard, so no core idles through the
			// step and nothing is borrowed from the kernel pool.
			rc.BeginStep = sma.BeginStep
			rc.StepShard = func(j int) {
				lo, hi := sma.Shard(j, k)
				sma.StepRange(ws, gs, lo, hi)
			}
		} else {
			rc.Step = func() {
				// The whole step runs on one learner with the others
				// stopped at the barrier, so it may use the whole kernel
				// budget, not a 1/k share.
				prev := tensor.SetActiveLearners(1)
				opt.Step(ws, gs)
				tensor.SetActiveLearners(prev)
			}
		}
	}
	return engine.NewRuntime(rc)
}

// Train runs a full training experiment on the scaled benchmark model and
// synthetic dataset, returning the per-epoch accuracy series. It is a thin
// driver over the engine's task runtime: the replica pool executes real
// forward/backward passes over batches staged by the data pipeline's
// circular buffer, under the configured scheduling mode. With the default
// lockstep scheduler the run is deterministic given the config, bit for
// bit at any kernel worker count.
func Train(cfg TrainConfig) *Result { return train(cfg, nil) }

// train is Train with the online tuner's input open to tests: observed, if
// non-nil, maps each epoch's measured images/s to the figure Algorithm 2 is
// shown, so a test can script the resizes instead of leaving them to the
// machine's load.
func train(cfg TrainConfig, observed func(measured float64) float64) *Result {
	cfg.fillDefaults()
	cfg.validate()

	k := cfg.K()
	maxK := k
	if cfg.AutoTuneLearners {
		k = cfg.GPUs // Alg 2 line 1: start with one learner per GPU
		maxK = cfg.GPUs * cfg.MaxLearnersPerGPU
	}

	e := newTrainEnv(&cfg, k)
	e.pub = newSnapshotPublisher(&cfg)
	test := e.test
	opt := buildOpt(&cfg, e.w0, k, e.nets[0].StateRanges())

	// Input pipeline: pre-processors stage shuffled batches into the
	// circular buffer; sized for the largest pool the run may grow to.
	shuffleSeed := cfg.Seed + 21
	if cfg.ShuffleSeed != 0 {
		shuffleSeed = cfg.ShuffleSeed
	}
	e.pipe = data.NewPipeline(e.train, data.PipelineConfig{
		Batch:   cfg.BatchPerLearner,
		Slots:   maxK * cfg.Prefetch,
		Workers: min(4, max(1, maxK/2)),
		Seed:    shuffleSeed,
	})
	defer e.pipe.Close()

	// Learner goroutines share the kernel-thread budget: k learners ×
	// ParallelFor workers never oversubscribe it.
	defer tensor.SetActiveLearners(tensor.SetActiveLearners(k))

	rt := e.buildRuntime(opt, k, 0, nil)
	defer func() { rt.Close() }()

	// The online tuner works in Algorithm 2's unit — learners per GPU —
	// so its Decision history reads like the offline tuner's; the driver
	// scales by GPUs to the pool size.
	var tuner *autotune.Online
	if cfg.AutoTuneLearners {
		tuner = autotune.NewOnline(autotune.OnlineConfig{
			Start: 1, Max: cfg.MaxLearnersPerGPU,
		})
	}

	res := &Result{K: k, EpochsToTarget: -1, Sched: cfg.Scheduler}
	lr := cfg.LearnRate

	// Steady-state memory accounting: deltas across the epoch loop, so
	// setup (datasets, replicas, pipeline) is excluded.
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	totalIters := 0

	for epoch := 1; epoch <= cfg.MaxEpochs; epoch++ {
		if cfg.Schedule != nil {
			nlr := cfg.Schedule(epoch, cfg.LearnRate)
			if nlr != lr {
				lr = nlr
				opt.SetLearnRate(lr)
				if cfg.RestartOnLRChange {
					restart(opt, e.ws[:k])
				}
			}
		}

		iters := e.iterPerEpoch(k)
		totalIters += iters
		e.pub.setEpoch(epoch)
		start := time.Now()
		rt.RunEpoch(iters)
		wall := time.Since(start).Seconds()
		lossSum, lossCount := rt.TakeEpochLoss()
		images := float64(iters * k * cfg.BatchPerLearner)
		wp := metrics.WallPoint{Epoch: epoch, Sec: wall}
		if wall > 0 {
			wp.ImagesPerSec = images / wall
		}
		res.Wall = append(res.Wall, wp)

		// Evaluation runs at quiescence (the epoch join), so it too gets
		// the whole kernel budget. An overlapped global exchange launched
		// by the epoch's last iteration is folded first, so the model read
		// here matches the synchronous path's byte for byte.
		drainExchange(opt)
		prevL := tensor.SetActiveLearners(1)
		acc := evaluate(e.evalNet, opt.Average(), e.evalGrad, test, e.evalBatch, e.es)
		tensor.SetActiveLearners(prevL)
		res.Series = append(res.Series, metrics.EpochPoint{
			Epoch:   epoch,
			TimeSec: float64(epoch) * cfg.EpochSeconds,
			TestAcc: acc,
			Loss:    lossSum / float64(max(1, lossCount)),
		})
		if cfg.TargetAcc > 0 {
			if ep, ok := metrics.EpochsToAccuracy(res.Series, cfg.TargetAcc); ok {
				res.EpochsToTarget = ep
				break
			}
		}

		// Online Algorithm 2: adapt the learner count to the measured
		// wall-clock throughput, resizing the replica pool between epochs.
		if tuner != nil && epoch < cfg.MaxEpochs {
			throughput := wp.ImagesPerSec
			if observed != nil {
				throughput = observed(throughput)
			}
			if nextK := cfg.GPUs * tuner.Observe(throughput); nextK != k {
				firstSeq, held := rt.Handoff()  // pipeline position carries over
				e.pub.rebase(rt.Stats().Rounds) // keep snapshot versions monotone
				rt.Close()
				z := append([]float32(nil), opt.Average()...)
				e.growLearners(nextK, z)
				for j := 0; j < nextK; j++ { // §3.2 restart: replicas ← z
					tensor.Copy(e.ws[j], z)
				}
				k = nextK
				opt = buildOpt(&cfg, z, k, e.nets[0].StateRanges())
				if lr != cfg.LearnRate {
					// buildOpt starts from the base rate; a schedule may
					// already have moved it.
					opt.SetLearnRate(lr)
				}
				tensor.SetActiveLearners(k)
				rt = e.buildRuntime(opt, k, firstSeq, held)
			}
		}
	}

	if res.EpochsToTarget < 0 && cfg.TargetAcc > 0 {
		if ep, ok := metrics.EpochsToAccuracy(res.Series, cfg.TargetAcc); ok {
			res.EpochsToTarget = ep
		}
	}
	res.K = k
	res.FinalAccuracy = metrics.BestAccuracy(res.Series)
	drainExchange(opt)
	res.Model = append([]float32(nil), opt.Average()...)
	res.RuntimeStats = rt.Stats()
	res.SeqLog = rt.SeqLog()
	if tuner != nil {
		res.TuneHistory = tuner.History()
	}
	res.Mem = e.memoryStats(k, totalIters, &memBefore)
	return res
}

// memoryStats assembles the run's memory-plane report from the network
// plan, the shared pool's accounting and MemStats deltas over the epoch
// loop.
func (e *trainEnv) memoryStats(k, iters int, before *runtime.MemStats) metrics.MemoryStats {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	plan := e.nets[0].MemPlan()
	ps := e.memPool.PoolStats()
	m := metrics.MemoryStats{
		ArenaBytesPerTask:  plan.ArenaBytes(),
		NaiveBytesPerTask:  plan.NaiveBytes(),
		Learners:           k,
		PoolAllocatedBytes: ps.AllocatedBytes,
		PoolPeakBytes:      ps.PeakBytes,
		PoolAllocs:         ps.Allocs,
		PoolReuses:         ps.Reuses,
		PoolBudgetWaits:    ps.BudgetWaits,
		GCPauseNs:          after.PauseTotalNs - before.PauseTotalNs,
		NumGC:              after.NumGC - before.NumGC,
		HeapAllocBytes:     after.HeapAlloc,
	}
	if iters > 0 {
		m.AllocsPerIter = float64(after.Mallocs-before.Mallocs) / float64(iters)
	}
	return m
}

// evalScratch holds the evaluation input buffers, allocated once per run
// instead of once per epoch.
type evalScratch struct {
	x      *tensor.Tensor
	labels []int
	idx    []int
}

func newEvalScratch(batch int, shape []int) *evalScratch {
	return &evalScratch{
		x:      tensor.New(append([]int{batch}, shape...)...),
		labels: make([]int, batch),
		idx:    make([]int, batch),
	}
}

// Evaluation covers the first ⌊Len/128⌋·128 test samples — all of them when
// there are fewer than 128 — which is the prefix every reported accuracy has
// been computed over since evaluation ran at batch 128 and dropped the
// batch the remainder did not fill. It walks them in cache-sized batches:
// an eval-mode forward's logits for a sample do not depend on what else is
// in the batch, so the batch size is a cost, not a result.
const (
	evalSpan  = 128
	evalBatch = 16
)

// evalSizes returns how many samples of a test set an evaluation covers and
// the batch size it covers them at.
func evalSizes(testLen int) (n, batch int) {
	n = testLen
	if n >= evalSpan {
		n -= n % evalSpan
	}
	if n%evalBatch != 0 {
		return n, n // under 128 samples that evalBatch does not divide: one batch
	}
	return n, evalBatch
}

// evaluate measures test accuracy of model w using the given evaluation
// network (whose gradient buffer is scratch), built for evalSizes' batch.
func evaluate(net *nn.Network, w, scratch []float32, test *data.Dataset, batch int, es *evalScratch) float64 {
	net.Bind(w, scratch)
	n, _ := evalSizes(test.Len())
	correct := 0
	for start := 0; start+batch <= n; start += batch {
		for i := 0; i < batch; i++ {
			es.idx[i] = start + i
		}
		test.Gather(es.idx, es.x, es.labels)
		correct += net.Evaluate(es.x, es.labels)
	}
	if n == 0 {
		return 0
	}
	return float64(correct) / float64(n)
}
