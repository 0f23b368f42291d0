package core

import (
	"fmt"
	"runtime"
	"sync"
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

// Inputs is what a training run takes beside its Config: values the
// crossbow API or an experiment driver derives for the run, which no user
// sets.
type Inputs struct {
	// EpochSeconds, if set, supplies the duration of one epoch (e.g. from
	// the hardware simulator) so the result's time axis is hardware time;
	// otherwise epochs are timestamped by index.
	EpochSeconds float64
	// LocalMomentum is momentum inside SMA/EA-SGD learners. Algorithm 1
	// applies momentum to the central average model only, so Algorithm 1's
	// runs leave it 0; the released system also runs momentum in the
	// solver, and crossbow.Train passes Config.Momentum.
	LocalMomentum float32

	// Exchange is the inter-server tier of AlgoSMACluster, which requires
	// it: this Train call runs ONE server's GPUs×LearnersPerGPU learners —
	// one rank of the cluster — and every τ_global local synchronisations
	// the server reference model is all-reduced with the other ranks
	// through this exchanger (see DistClusterSMA): a Loopback rank when
	// the cluster lives in one process, the TCP transport when it spans
	// several. Config.Node.OverlapGlobal overlaps each exchange with the
	// next iteration.
	Exchange GlobalExchanger
	// InitModel, if non-nil, overrides the seed-derived initial model w0
	// (it must match the model's parameter count). A node rejoining a
	// cluster warm-starts from a peer's snapshot this way, and StartEpoch
	// is the number of epochs that snapshot had completed (Snapshot.Epoch):
	// the run resumes its epoch loop, and its learning-rate schedule, at
	// epoch StartEpoch+1.
	InitModel  []float32
	StartEpoch int
	// ShuffleSeed, if non-zero, overrides the input pipeline's shuffle
	// seed (default Seed+21). Cluster ranks derive it from their rank so
	// every server trains on a differently-ordered batch stream while
	// sharing the same model seed.
	ShuffleSeed uint64
}

// maxLearnersPerGPU caps the online Algorithm 2's search; a variable only
// so tests can shorten it.
var maxLearnersPerGPU = 4

// prepare fills cfg's defaults and checks in against it. The callers of
// Train validate their Configs first (crossbow.Train returns the error), so
// what fails here is a programming error and panics.
func prepare(cfg *Config, in *Inputs) {
	if err := cfg.FillDefaults(); err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	if in.EpochSeconds == 0 {
		in.EpochSeconds = 1
	}
	if cfg.LearnersPerGPU == AutoTune && cfg.Algo != AlgoSMA {
		panic(fmt.Sprintf("core: online learner tuning requires AlgoSMA (got %q)", cfg.Algo))
	}
	// The cluster algorithm and an exchanger come together: either both or
	// neither.
	if (cfg.Algo == AlgoSMACluster) != (in.Exchange != nil) {
		panic(fmt.Sprintf("core: AlgoSMACluster and an Exchange require each other (got %q, exchange set: %v)", cfg.Algo, in.Exchange != nil))
	}
	if (in.InitModel != nil || in.StartEpoch != 0) && in.Exchange == nil {
		panic("core: InitModel and StartEpoch are only meaningful with an Exchange (snapshot-seeded rejoin)")
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
	// LearnersPerGPU was AutoTune. Decision.M is learners per GPU, the same
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
	cfg       *Config
	in        *Inputs
	train     *data.Dataset
	masterRNG *tensor.RNG
	nets      []*nn.Network
	ws, gs    [][]float32
	w0        []float32
	pipe      *data.Pipeline
	eval      *evaluator // over the test set
	// testSide builds eval until accuracy's first call joins it
	// (newTrainEnv); nil after.
	testSide *sideWork

	// The live memory plane (§4.5): all learners draw their task arenas
	// from one shared pool, keyed by the networks' identical plan layout;
	// taskBufs[j] is learner j's checked-out arena while its task runs.
	memPool    *memplan.OnlinePlanner
	taskBufs   []*memplan.Buffer
	planKey    string
	arenaElems int

	// pub cuts versioned model snapshots from the runtime's Publish
	// window (nil when Config.PublishEvery is unset).
	pub *snapshotPublisher
}

// newTrainEnv builds a run's long-lived pieces for k learners: datasets,
// the replica pool initialised from the seed-derived w0, and the
// evaluation network. Both Train and ReplayFCFS construct their runs
// through this one function, so the RNG streams (masterRNG seed+7, w0
// seed+13, eval seed+99) and build order can never diverge between a live
// run and its replay. The set-up work runs on three goroutines:
//
//   - the caller builds, initialises and plans the replicas;
//   - the train side makes the synthesis's shared draws (the data seed's
//     stream), starts the test side and builds the train set; it is joined
//     here, before anything reads the train set;
//   - the test side builds the test set and the evaluation lanes the first
//     accuracy call will use; it is joined only there (accuracy), so it
//     runs beside the first epoch.
//
// Each side's panic is raised again at its join, on the caller's goroutine.
func newTrainEnv(cfg *Config, in *Inputs, k int) *trainEnv {
	dataCfg := data.ForModel(cfg.Model, cfg.Seed, 0)
	if cfg.TrainSamples > 0 {
		dataCfg.Train = cfg.TrainSamples
	}
	if cfg.TestSamples > 0 {
		dataCfg.Test = cfg.TestSamples
	}
	e := &trainEnv{cfg: cfg, in: in, masterRNG: tensor.NewRNG(cfg.Seed + 7)}
	trainSide := goSide(func() {
		synth := data.NewSynthesis(dataCfg)
		e.testSide = goSide(func() { e.buildEval(synth.Test()) })
		e.train = synth.Train()
	})

	// Learner networks and replicas (the replica pool).
	for j := 0; j < k; j++ {
		net := nn.BuildScaled(cfg.Model, cfg.Batch, e.masterRNG.Split())
		e.nets = append(e.nets, net)
	}
	e.w0 = e.nets[0].Init(tensor.NewRNG(cfg.Seed + 13))
	if in.InitModel != nil {
		if len(in.InitModel) != len(e.w0) {
			panic(fmt.Sprintf("core: InitModel has %d parameters, model needs %d", len(in.InitModel), len(e.w0)))
		}
		copy(e.w0, in.InitModel)
	}
	for j := 0; j < k; j++ {
		e.ws = append(e.ws, append([]float32(nil), e.w0...))
		e.gs = append(e.gs, make([]float32, len(e.w0)))
		e.nets[j].Bind(e.ws[j], e.gs[j])
	}

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

	trainSide.join()
	return e
}

// buildEval makes the evaluator over test, with the lanes an accuracy call
// at quiescence uses: one per kernel worker, at most one per batch.
// Evaluation lanes run over the central model at quiescence with a
// different batch size (different plan key), so each keeps a private arena
// instead of cycling through the task pool. They never train, so they run
// the fused conv→BN→ReLU epilogues over forward-only arenas: fusion is
// bit-identical to the unfused forward (nn/fuse.go,
// TestFusedPredictBitIdentical).
func (e *trainEnv) buildEval(test *data.Dataset) {
	_, batch := evalSizes(test.Len())
	e.eval = newEvaluator(test, batch, func() *nn.Network {
		return newEvalNet(e.cfg.Model, batch, e.cfg.Seed)
	})
	e.eval.grow(tensor.WorkerBudget())
}

// accuracy evaluates model w over the test set; the first call joins the
// test side.
func (e *trainEnv) accuracy(w []float32) float64 {
	if e.testSide != nil {
		e.testSide.join()
		e.testSide = nil
	}
	return e.eval.accuracy(w)
}

// sideWork is set-up work running on a goroutine of its own. A panic there
// is recovered and raised again by join, so it reaches the caller of Train
// like one on the caller's own goroutine instead of ending the process; the
// work of a call that panics before its joins is left to finish unjoined.
type sideWork struct {
	done     chan struct{}
	panicked any
}

func goSide(f func()) *sideWork {
	w := &sideWork{done: make(chan struct{})}
	go func() {
		defer close(w.done)
		defer func() { w.panicked = recover() }()
		f()
	}()
	return w
}

// join waits for the work and raises its panic, if it had one.
func (w *sideWork) join() {
	<-w.done
	if w.panicked != nil {
		panic(w.panicked)
	}
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
		net := nn.BuildScaled(e.cfg.Model, e.cfg.Batch, e.masterRNG.Split())
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
	it := (e.train.Len() / e.cfg.Batch) / k
	if it == 0 {
		it = 1
	}
	return it
}

// buildOpt constructs the optimiser for k learners from initial model w0.
func buildOpt(cfg *Config, in *Inputs, w0 []float32, k int, stateRanges [][2]int) stepper {
	smaCfg := SMAConfig{
		LearnRate: cfg.LearnRate, Momentum: cfg.Momentum,
		LocalMomentum: in.LocalMomentum, Tau: cfg.Tau,
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
			SMAConfig: smaCfg, TauGlobal: cfg.TauGlobal, OverlapGlobal: cfg.Node.OverlapGlobal,
		}, w0, k, in.Exchange)
	case AlgoSSGD:
		s := NewSSGD(cfg.LearnRate, cfg.Momentum, w0)
		s.StateRanges = stateRanges
		return s
	case AlgoEASGD:
		ea := NewEASGD(cfg.LearnRate, 0, cfg.Tau, k, w0)
		ea.LocalMomentum = in.LocalMomentum
		return ea
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
		sma := opt.(*SMA) // FillDefaults guarantees AlgoSMA
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
			// The whole step runs on one learner with the others stopped
			// at the barrier and no task in flight, so its kernels get the
			// whole budget.
			rc.Step = func() { opt.Step(ws, gs) }
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
func Train(cfg Config, in Inputs) *Result { return train(cfg, in, nil) }

// train is Train with the online tuner's input open to tests: observed, if
// non-nil, maps each epoch's measured images/s to the figure Algorithm 2 is
// shown, so a test can script the resizes instead of leaving them to the
// machine's load.
func train(cfg Config, in Inputs, observed func(measured float64) float64) *Result {
	prepare(&cfg, &in)

	k := cfg.K()
	maxK := k
	tunes := cfg.LearnersPerGPU == AutoTune
	if tunes {
		k = cfg.GPUs // Alg 2 line 1: start with one learner per GPU
		maxK = cfg.GPUs * maxLearnersPerGPU
	}

	e := newTrainEnv(&cfg, &in, k)
	e.pub = newSnapshotPublisher(&cfg)
	opt := buildOpt(&cfg, &in, e.w0, k, e.nets[0].StateRanges())

	// Input pipeline: pre-processors stage shuffled batches into the
	// circular buffer; sized for the largest pool the run may grow to.
	shuffleSeed := cfg.Seed + 21
	if in.ShuffleSeed != 0 {
		shuffleSeed = in.ShuffleSeed
	}
	e.pipe = data.NewPipeline(e.train, data.PipelineConfig{
		Batch:   cfg.Batch,
		Slots:   maxK * cfg.Prefetch,
		Workers: min(4, max(1, maxK/2)),
		Seed:    shuffleSeed,
	})
	defer e.pipe.Close()

	rt := e.buildRuntime(opt, k, 0, nil)
	defer func() { rt.Close() }()

	// The online tuner works in Algorithm 2's unit — learners per GPU —
	// so its Decision history reads like the offline tuner's; the driver
	// scales by GPUs to the pool size.
	var tuner *autotune.Online
	if tunes {
		tuner = autotune.NewOnline(1, maxLearnersPerGPU, 1)
	}

	res := &Result{K: k, EpochsToTarget: -1, Sched: cfg.Scheduler}
	lr := cfg.LearnRate

	// Steady-state memory accounting: deltas across the epoch loop, so
	// setup (train set, replicas, pipeline) is excluded; the test side can
	// finish inside it (metrics.MemoryStats.AllocsPerIter).
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	totalIters := 0

	for epoch := in.StartEpoch + 1; epoch <= cfg.MaxEpochs; epoch++ {
		if cfg.Schedule != nil {
			nlr := cfg.Schedule(epoch, cfg.LearnRate)
			if nlr != lr {
				lr = nlr
				opt.SetLearnRate(lr)
				if cfg.Restart {
					restart(opt, e.ws[:k])
				}
			}
		}

		iters := e.iterPerEpoch(k)
		totalIters += iters
		e.pub.setEpoch(epoch, totalIters)
		start := time.Now()
		rt.RunEpoch(iters)
		wall := time.Since(start).Seconds()
		lossSum, lossCount := rt.TakeEpochLoss()
		images := float64(iters * k * cfg.Batch)
		wp := metrics.WallPoint{Epoch: epoch, Sec: wall}
		if wall > 0 {
			wp.ImagesPerSec = images / wall
		}
		res.Wall = append(res.Wall, wp)

		// Evaluation runs at quiescence (the epoch join), with none of this
		// run's tasks in flight, so it gets a lane per kernel worker. An
		// overlapped global exchange launched by the epoch's last iteration
		// is folded first, so the model read here matches the synchronous
		// path's byte for byte.
		drainExchange(opt)
		acc := e.accuracy(opt.Average())
		res.Series = append(res.Series, metrics.EpochPoint{
			Epoch:   epoch,
			TimeSec: float64(epoch) * in.EpochSeconds,
			TestAcc: acc,
			Loss:    lossSum / float64(max(1, lossCount)),
		})
		if cfg.TargetAccuracy > 0 {
			if ep, ok := metrics.EpochsToAccuracy(res.Series, cfg.TargetAccuracy); ok {
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
				opt = buildOpt(&cfg, &in, z, k, e.nets[0].StateRanges())
				if lr != cfg.LearnRate {
					// buildOpt starts from the base rate; a schedule may
					// already have moved it.
					opt.SetLearnRate(lr)
				}
				rt = e.buildRuntime(opt, k, firstSeq, held)
			}
		}
	}

	if res.EpochsToTarget < 0 && cfg.TargetAccuracy > 0 {
		if ep, ok := metrics.EpochsToAccuracy(res.Series, cfg.TargetAccuracy); ok {
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

// newEvalNet builds one evaluation lane's network: the model at the given
// batch, fused for forward-only execution over a private inference arena.
func newEvalNet(id nn.ModelID, batch int, seed uint64) *nn.Network {
	net := nn.BuildScaled(id, batch, tensor.NewRNG(seed+99))
	net.FuseInference()
	net.AttachInferenceArena(tensor.NewArena(net.InferPlan().ArenaElems))
	return net
}

// evaluator measures the test accuracy of a model over the evaluated prefix
// of a test set (evalSizes). It deals the prefix's batches to lanes, each an
// evaluation network of its own at the same batch size, bound read-only to
// the model and walking one contiguous range of batches. Every lane counts
// as one task in flight (tensor.EnterTask), so with a lane per worker each
// lane's kernels run at share 1: evaluation is data-parallel across the
// kernel workers, where splitting each batch-16 GEMM across them cost more
// in hand-offs than it saved (BenchmarkEvaluate). A sample's eval-mode
// logits depend neither on the rest of its batch nor on the worker count,
// every lane layout walks the same batches, and the lanes' integer correct
// counts sum in any order, so every accuracy is exactly the one-lane walk's.
type evaluator struct {
	test     *data.Dataset
	n, batch int
	newNet   func() *nn.Network
	lanes    []*evalLane // built on first use and kept for the run

	// The current call's model and lane count, and the Once that counts
	// its lanes as tasks, read by runLanes, which is bound once as dealt
	// so a call allocates no closure for it.
	w       []float32
	active  int
	counted sync.Once
	dealt   func(lo, hi int)
}

// evalLane is one lane's network and buffers, allocated once per run.
type evalLane struct {
	net     *nn.Network
	grad    []float32 // Bind's gradient vector; a forward never writes it
	x       *tensor.Tensor
	labels  []int
	idx     []int
	correct int
}

// newEvaluator returns an evaluator over test at the given batch size;
// newNet builds a lane's network.
func newEvaluator(test *data.Dataset, batch int, newNet func() *nn.Network) *evaluator {
	n, _ := evalSizes(test.Len())
	ev := &evaluator{test: test, n: n, batch: batch, newNet: newNet}
	ev.dealt = ev.runLanes
	return ev
}

func (ev *evaluator) newLane() *evalLane {
	net := ev.newNet()
	return &evalLane{
		net:    net,
		grad:   make([]float32, net.ParamSize()),
		x:      tensor.New(append([]int{ev.batch}, ev.test.Shape...)...),
		labels: make([]int, ev.batch),
		idx:    make([]int, ev.batch),
	}
}

// accuracy evaluates model w with a lane per kernel worker a call made now
// would get (tensor.Parallelism): the whole budget at quiescence in one
// process, one lane under a budget of 1, fewer while in-process peers have
// tasks in flight.
func (ev *evaluator) accuracy(w []float32) float64 {
	return ev.accuracyLanes(w, tensor.Parallelism())
}

// accuracyLanes evaluates model w over min(lanes, batches) lanes.
func (ev *evaluator) accuracyLanes(w []float32, lanes int) float64 {
	if ev.n == 0 {
		return 0
	}
	lanes = ev.grow(lanes)
	ev.w, ev.active, ev.counted = w, lanes, sync.Once{}
	tensor.ParallelFor(lanes, 1, ev.dealt)
	for i := 0; i < lanes; i++ {
		tensor.ExitTask()
	}
	correct := 0
	for _, l := range ev.lanes[:lanes] {
		correct += l.correct
	}
	return float64(correct) / float64(ev.n)
}

// grow builds lanes up to min(lanes, batches), at least one, and returns
// that count.
func (ev *evaluator) grow(lanes int) int {
	if ev.n == 0 {
		return 0
	}
	lanes = max(1, min(lanes, ev.n/ev.batch))
	for len(ev.lanes) < lanes {
		ev.lanes = append(ev.lanes, ev.newLane())
	}
	return lanes
}

// runLanes walks lanes [lo, hi) of the current call. Of the prefix's B
// batches, lane i takes [i·B/lanes, (i+1)·B/lanes).
func (ev *evaluator) runLanes(lo, hi int) {
	ev.counted.Do(ev.enterLanes)
	nb := ev.n / ev.batch
	for i := lo; i < hi; i++ {
		ev.lanes[i].walk(ev, i*nb/ev.active, (i+1)*nb/ev.active)
	}
}

// enterLanes counts all of the call's lanes as tasks in flight. The first
// chunk to start runs it and the others wait for it, after ParallelFor has
// fixed its chunks, and accuracyLanes ends the count after the last lane.
// So no lane runs a kernel while a lane that has not started or one that
// has finished leaves a worker to split into: a batch-16 GEMM split costs
// more than it saves, and evaluation allocates nothing per batch.
func (ev *evaluator) enterLanes() {
	for i := 0; i < ev.active; i++ {
		tensor.EnterTask()
	}
}

// walk binds the lane to the current call's model and counts its correct
// predictions over batches [from, to).
func (l *evalLane) walk(ev *evaluator, from, to int) {
	l.net.Bind(ev.w, l.grad)
	l.correct = 0
	for b := from; b < to; b++ {
		for i := range l.idx {
			l.idx[i] = b*ev.batch + i
		}
		ev.test.Gather(l.idx, l.x, l.labels)
		l.correct += l.net.Evaluate(l.x, l.labels)
	}
}
