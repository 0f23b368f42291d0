// Package crossbow is a Go reproduction of "CROSSBOW: Scaling Deep Learning
// with Small Batch Sizes on Multi-GPU Servers" (Koliousis et al., VLDB
// 2019): synchronous model averaging (SMA) with independent learners, a
// concurrent task engine that trains multiple model replicas per GPU, and
// auto-tuning of the learner count to saturate hardware at small batch
// sizes.
//
// Since CUDA GPUs are not reachable from pure Go, the package composes two
// planes (see DESIGN.md): genuine gradient-descent training of scaled
// benchmark models measures statistical efficiency, while a discrete-event
// simulator of the paper's 8-GPU server measures hardware efficiency.
// Time-to-accuracy — the paper's headline metric — multiplies epochs-to-
// accuracy from the first plane by epoch duration from the second.
//
// Config.Servers > 1 scales out with a two-level averaging schedule on top
// of the paper's SMA (core.DistClusterSMA): every server is one rank that
// trains its own learners and, every TauGlobal local synchronisations,
// all-reduces its reference model with the others. There is one such
// algorithm and one per-rank driver; Config.Transport only picks the
// exchanger — in-process ranks over memory (TransportSimulated) or one
// process per server over TCP (TransportTCP) — and where both reduce in the
// same order the trained bytes are equal. The hardware plane of a cluster
// run is internal/cluster's discrete-event engine, N simulated servers
// joined by the Config.Interconnect cost model.
//
// Quick start:
//
//	res, err := crossbow.Train(crossbow.Config{
//		Model:          crossbow.ResNet32,
//		GPUs:           8,
//		LearnersPerGPU: crossbow.AutoTune,
//		Batch:          16,
//		TargetAccuracy: 0.80,
//	})
package crossbow

import (
	"fmt"
	"sync"

	"crossbow/internal/autotune"
	"crossbow/internal/cluster"
	"crossbow/internal/core"
	"crossbow/internal/engine"
	"crossbow/internal/metrics"
	"crossbow/internal/nn"
	"crossbow/internal/tensor"
)

// Model identifies a benchmark model (paper Table 1).
type Model = nn.ModelID

// The four benchmark models.
const (
	LeNet    = nn.LeNet
	ResNet32 = nn.ResNet32
	VGG16    = nn.VGG16
	ResNet50 = nn.ResNet50
)

// Models lists the benchmark models in Table 1 order.
var Models = nn.AllModels

// Algorithm selects the synchronisation algorithm.
type Algorithm = core.Algorithm

// Available algorithms. SMA is Crossbow's synchronous model averaging
// (Algorithm 1); SSGD is the TensorFlow-style baseline; EASGD the elastic
// averaging comparator of §5.5; SMAHierarchical the two-level organisation
// of §3.3.
const (
	SMA             = core.AlgoSMA
	SMAHierarchical = core.AlgoSMAHier
	SSGD            = core.AlgoSSGD
	EASGD           = core.AlgoEASGD
	ASGD            = core.AlgoASGD
)

// AutoTune, used as LearnersPerGPU, lets Algorithm 2 choose the learner
// count that saturates training throughput. With the default scheduler the
// count is probed on the hardware simulator before the run; with
// Scheduler: FCFS the tuner runs online, adapting the learner count to
// measured wall-clock throughput while training.
const AutoTune = -1

// Scheduler selects the task runtime's scheduling mode (§4.3).
type Scheduler = core.SchedulerMode

// Scheduler modes. Lockstep joins every learner behind a per-iteration
// barrier (the baseline execution model; bit-deterministic given the
// config). FCFS is Crossbow's barrier-free schedule: learners bind staged
// input batches first-come-first-served, run ahead of the average model by
// up to τ iterations, and synchronisation overlaps the next iteration's
// compute. FCFS requires the SMA algorithm on a single server.
const (
	Lockstep = core.SchedLockstep
	FCFS     = core.SchedFCFS
)

// Config configures a training run.
type Config struct {
	// Model is the benchmark to train. Required.
	Model Model
	// Algo defaults to SMA.
	Algo Algorithm
	// Servers is the number of multi-GPU servers (default 1). Above 1 the
	// run is a cluster of Servers ranks training with the two-level cluster
	// SMA, and the hardware plane schedules cross-server average tasks over
	// Interconnect; Servers: 1 is exactly the paper's single-server system.
	// Each rank holds GPUs×LearnersPerGPU learners and passes over the whole
	// training set once per epoch on its own shuffle of it, so an epoch of
	// a cluster run consumes Servers × the training set, and EpochSeconds
	// (the time stamps of Series, TTASeconds) is scaled accordingly.
	Servers int
	// Interconnect is the cross-server network cost model (zero value:
	// 10 Gb/s Ethernet). Only meaningful with Servers > 1. On a TCP run
	// it doubles as the cost-model oracle reported next to the measured
	// transport statistics, and Interconnect.Tree selects the real
	// collective's topology too.
	Interconnect Interconnect
	// Transport selects the cross-server exchange plane with Servers > 1:
	// TransportSimulated (default) runs every server as a rank of this
	// process, exchanging through memory, with time charged by the
	// Interconnect cost model; TransportTCP runs one server per OS process,
	// exchanging the average model over real sockets. The ranks are the
	// same either way.
	Transport Transport
	// Node describes this process's rank and the cluster's address list
	// with Transport: TransportTCP.
	Node NodeConfig
	// GPUs is the number of simulated GPUs g per server (default 1).
	GPUs int
	// LearnersPerGPU is m, the model replicas trained per GPU; AutoTune
	// selects it with Algorithm 2 (default 1).
	LearnersPerGPU int
	// Batch is the per-learner batch size b (default 16).
	Batch int
	// LearnRate γ (default: per-model calibration), Momentum µ (default
	// 0.9).
	LearnRate float32
	Momentum  float32
	// Tau is the synchronisation period (default 1; see §5.5).
	Tau int
	// TauGlobal is the cross-server averaging period in units of
	// intra-server synchronisations (default 1). Only meaningful with
	// Servers > 1.
	TauGlobal int
	// TargetAccuracy stops training once the median test accuracy of the
	// last 5 epochs reaches it (TTA's window). Zero trains MaxEpochs.
	TargetAccuracy float64
	// MaxEpochs bounds the run (default 30).
	MaxEpochs int
	// Seed makes the run reproducible (default 1).
	Seed uint64
	// Schedule optionally adapts the learning rate per epoch; Restart
	// applies the §3.2 SMA restart on learning-rate changes.
	Schedule core.Schedule
	Restart  bool
	// TrainSamples/TestSamples override the synthetic dataset sizes. Test
	// accuracy is measured over the first ⌊TestSamples/128⌋·128 test
	// samples: a remainder beyond the last multiple of 128 is never
	// evaluated (a test set of fewer than 128 samples is evaluated whole).
	TrainSamples, TestSamples int
	// KernelThreads bounds the compute kernels' worker budget (process-
	// wide; see tensor.SetWorkerBudget). Zero keeps the current setting —
	// by default runtime.NumCPU(), overridable with CROSSBOW_PARALLELISM.
	// The budget is shared: k concurrent learners each get a pool of
	// max(1, budget/k) kernel workers, so learner- and kernel-level
	// parallelism never oversubscribe it. Results are bit-identical at any
	// value.
	KernelThreads int
	// Scheduler selects the task runtime's scheduling mode: Lockstep
	// (default, bit-deterministic) or FCFS (barrier-free; SMA only,
	// Servers == 1).
	Scheduler Scheduler
	// Prefetch is the staged-batch depth per learner in the input
	// pipeline's circular buffer; minimum 1 (default 2, double buffering
	// per §4.5).
	Prefetch int
	// MemoryBudget bounds the shared activation pool in bytes (§4.5):
	// every learning task executes against a planned arena checked out of
	// per-operator pools shared by all learners, and when granting another
	// arena would exceed the budget, learners wait for one to come back
	// instead of growing the footprint. One task is always admitted, so
	// any budget makes progress. Zero selects the default — enough arenas
	// to cover the kernel worker budget plus one — under which activation
	// memory grows with actual task concurrency, not learner count.
	MemoryBudget int64
	// PublishEvery, with OnSnapshot set, publishes a versioned snapshot of
	// the central average model every PublishEvery iterations, rounded up
	// to the enclosing synchronisation round — the boundary at which the
	// model is stable under both schedulers, so snapshots are never torn
	// (DESIGN.md §11). Zero disables publishing.
	PublishEvery int
	// OnSnapshot receives each published snapshot while training runs.
	// Typical consumers hand it to a Predictor's UpdateSnapshot (serving
	// the freshest model) or to SaveSnapshot (durable export). The
	// callback runs on runtime goroutines and must return quickly.
	OnSnapshot func(Snapshot)
	// PublishAddr, with PublishEvery set, additionally streams every
	// published snapshot to serving replicas over TCP (DESIGN.md §16): Train
	// runs a ModelPublisher on this address for the duration of the run, and
	// Predictors started with ServeConfig.Follow (or crossbow-serve -follow)
	// receive each snapshot as a delta against the model they already hold.
	// OnSnapshot may still be set; it runs after the feed send.
	PublishAddr string

	// benchcompat:begin — the three names the frozen benchmark module
	// (benchmark/) still compiles against. There is one kernel contract since
	// PR 23, so the field selects nothing: it must be left at Deterministic,
	// its zero value. Nothing else in the root module may name them
	// (TestBenchCompatUnused); ROADMAP item 6(f) deletes this block.
	KernelMode KernelMode
}

type KernelMode = tensor.KernelMode

const Deterministic = tensor.Deterministic

func (c *Config) benchCompat() error {
	if c.KernelMode != Deterministic {
		return fmt.Errorf("crossbow: Config.KernelMode %d: Fast mode was deleted, leave the field unset", c.KernelMode)
	}
	return nil
}

// benchcompat:end

// Snapshot is a versioned copy of the central average model cut at a
// synchronisation-round boundary — the servable artefact of a training run.
// See Config.PublishEvery, Serve and SaveSnapshot.
type Snapshot = core.Snapshot

// Result is the outcome of a training run.
type Result struct {
	// Series holds one point per epoch with simulated-time stamps.
	Series []metrics.EpochPoint
	// LearnersPerGPU is the effective m (after auto-tuning).
	LearnersPerGPU int
	// Servers is the effective cluster size (1 on single-server runs).
	Servers int
	// Interconnect is the network cost model the cluster run used (zero
	// value on single-server runs).
	Interconnect Interconnect
	// Transport is the exchange plane the run used (TransportSimulated on
	// single-process runs).
	Transport Transport
	// TransportStats reports the TCP transport's counters for this
	// process — bytes and frames on the wire, reconnects, membership
	// churn, and round synchronisation wall times (the measured
	// counterpart of Interconnect.AllReduceUS). Zero unless
	// Transport == TransportTCP.
	TransportStats metrics.TransportStats
	// WarmStartRound is the snapshot round this process resumed from when
	// it rejoined a running cluster (0 on cold starts).
	WarmStartRound int
	// ThroughputImgSec is the simulated training throughput.
	ThroughputImgSec float64
	// EpochSeconds is the simulated duration of one paper-scale epoch (on
	// a cluster run: of every rank's pass over the set, see Config.Servers).
	EpochSeconds float64
	// EpochsToTarget is the ETA statistic (-1 if target unset/missed).
	EpochsToTarget int
	// TTASeconds is time-to-accuracy in simulated seconds (-1 if missed).
	TTASeconds float64
	// BestAccuracy is the highest test accuracy observed.
	BestAccuracy float64
	// TuneHistory holds Algorithm 2's decisions when auto-tuning was used.
	TuneHistory []autotune.Decision
	// Params is the trained model: the central average model for
	// SMA/EA-SGD, the global model for S-SGD/A-SGD. Pair with SaveModel
	// to checkpoint it.
	Params []float32
	// Scheduler is the task-runtime mode the statistical plane executed
	// with.
	Scheduler Scheduler
	// Wall records each epoch's measured wall-clock duration and training
	// throughput on this machine (the real-hardware complement of the
	// simulated ThroughputImgSec). On a cluster run it is this rank's
	// (rank 0's on the simulated transport).
	Wall []metrics.WallPoint
	// WallImagesPerSec is the measured mean training throughput; on the
	// simulated transport, summed over the ranks of the process.
	WallImagesPerSec float64
	// RuntimeStats reports the task runtime's scheduling statistics
	// (rounds applied, straggler waits, FCFS run-ahead).
	RuntimeStats engine.RuntimeStats
	// Mem reports the live memory plane (§4.5): the planned per-task
	// arena vs the naive footprint, shared-pool allocation/peak/hit-rate,
	// and GC pause + allocation deltas over the training epochs.
	Mem metrics.MemoryStats
}

func (c *Config) fillDefaults() error {
	if c.Model == "" {
		return fmt.Errorf("crossbow: Config.Model is required")
	}
	if _, ok := nn.ScaledConfigs[c.Model]; !ok {
		return fmt.Errorf("crossbow: unknown model %q", c.Model)
	}
	if c.Algo == "" {
		c.Algo = SMA
	}
	if c.Servers <= 0 {
		c.Servers = 1
	}
	if c.GPUs <= 0 {
		c.GPUs = 1
	}
	if c.Batch <= 0 {
		c.Batch = 16
	}
	if c.Momentum == 0 {
		c.Momentum = 0.9
	}
	if c.MaxEpochs <= 0 {
		c.MaxEpochs = 30
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if err := c.benchCompat(); err != nil {
		return err
	}
	if c.KernelThreads > 0 {
		tensor.SetWorkerBudget(c.KernelThreads)
	}
	switch c.Scheduler {
	case "", Lockstep:
		c.Scheduler = Lockstep
	case FCFS:
		if c.Algo != SMA {
			return fmt.Errorf("crossbow: Scheduler FCFS requires Algo SMA (got %q)", c.Algo)
		}
		if c.Servers > 1 {
			return fmt.Errorf("crossbow: Scheduler FCFS is single-server (got Servers %d)", c.Servers)
		}
	default:
		return fmt.Errorf("crossbow: unknown scheduler %q", c.Scheduler)
	}
	switch c.Transport {
	case "", TransportSimulated:
		c.Transport = TransportSimulated
	case TransportTCP:
		// One process per server: Servers defaults to the peer count.
		if c.Servers <= 1 && len(c.Node.Peers) > 0 {
			c.Servers = len(c.Node.Peers)
		}
		if err := c.validateTCP(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("crossbow: unknown transport %q", c.Transport)
	}
	if c.Servers > 1 || c.Transport == TransportTCP {
		// A cluster run trains with the two-level cluster SMA, whatever SMA
		// flavour was asked for.
		algo, err := clusterAlgo(c.Algo)
		if err != nil {
			return err
		}
		c.Algo = algo
		if c.Interconnect == (Interconnect{}) {
			c.Interconnect = Ethernet()
		}
	}
	return nil
}

// tunesOnline reports whether AutoTune means the *online* Algorithm 2: with
// the FCFS runtime the statistical plane starts at one learner per GPU and
// resizes against measured wall-clock throughput while training. Otherwise
// the count is probed on the hardware simulator up front (resolveLearners).
func (c *Config) tunesOnline() bool {
	return c.LearnersPerGPU == AutoTune && c.Scheduler == FCFS
}

// resolveLearners returns the learners-per-GPU count m of a run: the
// configured one, or with AutoTune the offline tuner's choice for the
// cluster shape (with its decision history). The tuner is deterministic in
// (model, gpus, batch, cluster shape), so every rank of a cluster run
// resolves the same m.
func resolveLearners(cfg Config) (int, []autotune.Decision) {
	switch {
	case cfg.LearnersPerGPU == AutoTune:
		tuned := autotune.Tune(autotune.Config{
			Model: cfg.Model, GPUs: cfg.GPUs, Batch: cfg.Batch,
			Servers: cfg.Servers, TauGlobal: cfg.TauGlobal, Net: cfg.Interconnect,
		})
		return tuned.Chosen, tuned.History
	case cfg.LearnersPerGPU <= 0:
		return 1, nil
	}
	return cfg.LearnersPerGPU, nil
}

// hardwareThroughput measures the hardware plane: simulated training
// throughput (images/s, the whole cluster's) for cfg at m learners per GPU
// — the S-SGD engine, the single-server engine, or the cluster engine with
// its cross-server average tasks over cfg.Interconnect.
func hardwareThroughput(cfg Config, m int) float64 {
	const iters = 30
	switch {
	case cfg.Algo == SSGD:
		return engine.NewSSGD(engine.SSGDConfig{
			Model: cfg.Model, GPUs: cfg.GPUs, AggregateBatch: cfg.Batch * cfg.GPUs * m,
		}).Throughput(iters)
	case cfg.Servers > 1:
		return cluster.New(cluster.Config{
			Model: cfg.Model, Servers: cfg.Servers, GPUsPerServer: cfg.GPUs,
			LearnersPerGPU: m, Batch: cfg.Batch,
			TauLocal: max(1, cfg.Tau), TauGlobal: cfg.TauGlobal,
			Overlap: true, Net: cfg.Interconnect,
		}).Throughput(iters)
	}
	// One server is one engine: the cluster engine at Servers: 1 schedules
	// the same work but costs a third more to build, on every Train call.
	return engine.New(engine.Config{
		Model: cfg.Model, GPUs: cfg.GPUs, LearnersPerGPU: m, Batch: cfg.Batch,
		Tau: max(1, cfg.Tau), Overlap: true,
	}).Throughput(iters)
}

// Train runs the configured experiment end to end: optional learner
// auto-tuning, hardware-efficiency measurement on the simulated server or
// cluster, and genuine training of the scaled model for statistical
// efficiency — on this server, as Servers ranks in this process
// (TransportSimulated), or as this process's rank of a TCP cluster.
func Train(cfg Config) (*Result, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	if cfg.PublishAddr != "" {
		if cfg.PublishEvery <= 0 {
			return nil, fmt.Errorf("crossbow: PublishAddr requires PublishEvery")
		}
		mp, err := NewModelPublisher(cfg.PublishAddr)
		if err != nil {
			return nil, err
		}
		defer mp.Close()
		prev := cfg.OnSnapshot
		cfg.OnSnapshot = func(s Snapshot) {
			// A feed hiccup must not kill the run: Publish only errors on
			// contract violations the snapshot publisher upholds (monotone
			// rounds, stable shape); per-subscriber faults drop subscribers,
			// not snapshots.
			mp.Publish(s)
			if prev != nil {
				prev(s)
			}
		}
	}

	// What every rank of the run shares: the learner count and the hardware
	// plane's throughput and epoch duration at paper scale.
	base := Result{Servers: cfg.Servers, Transport: cfg.Transport, LearnersPerGPU: 1}
	if cfg.Algo == core.AlgoSMACluster {
		base.Interconnect = cfg.Interconnect
	}
	if !cfg.tunesOnline() { // else refined from the run's TuneHistory
		base.LearnersPerGPU, base.TuneHistory = resolveLearners(cfg)
	}
	base.ThroughputImgSec = hardwareThroughput(cfg, base.LearnersPerGPU)
	if base.ThroughputImgSec > 0 {
		// Every rank passes over the whole training set per epoch, so a
		// cluster epoch consumes Servers × TrainSamples images.
		base.EpochSeconds = float64(cfg.Servers) * float64(nn.FullSpec(cfg.Model).TrainSamples) / base.ThroughputImgSec
	}

	switch {
	case cfg.Transport == TransportTCP:
		return trainNodeTCP(cfg, base)
	case cfg.Servers > 1:
		return trainLoopback(cfg, base), nil
	}
	return trainRank(cfg, base, 0, nil, nil, cfg.OnSnapshot), nil
}

// trainRank runs the statistical plane — real training of the scaled model
// on the task runtime — for one rank and fills in the run's Result from
// base. A single-server run is rank 0 with no exchanger; a cluster rank
// trains its own server's learners on a rank-derived batch stream and
// averages with its peers through ex (see core.DistClusterSMA). initModel
// warm-starts a rejoining rank; publish receives the rank's snapshots.
func trainRank(cfg Config, base Result, rank int, ex core.GlobalExchanger, initModel []float32, publish func(Snapshot)) *Result {
	res := base
	var shuffleSeed uint64 // zero: the trainer's default stream
	if ex != nil {
		shuffleSeed = shuffleSeedFor(cfg.Seed, rank)
	}
	tr := core.Train(core.TrainConfig{
		Model:           cfg.Model,
		Algo:            cfg.Algo,
		GPUs:            cfg.GPUs,
		LearnersPerGPU:  res.LearnersPerGPU,
		BatchPerLearner: cfg.Batch,
		LearnRate:       cfg.LearnRate,
		Momentum:        cfg.Momentum,
		LocalMomentum:   cfg.Momentum, // solver momentum inside learners, as released

		Tau:               cfg.Tau,
		TauGlobal:         cfg.TauGlobal,
		MaxEpochs:         cfg.MaxEpochs,
		TargetAcc:         cfg.TargetAccuracy,
		Seed:              cfg.Seed,
		Schedule:          cfg.Schedule,
		RestartOnLRChange: cfg.Restart,
		EpochSeconds:      res.EpochSeconds,
		TrainSamples:      cfg.TrainSamples,
		TestSamples:       cfg.TestSamples,
		Scheduler:         cfg.Scheduler,
		Prefetch:          cfg.Prefetch,
		AutoTuneLearners:  cfg.tunesOnline(),
		MemoryBudget:      cfg.MemoryBudget,
		PublishEvery:      cfg.PublishEvery,
		OnSnapshot:        publish,

		ExchangeRetries: cfg.Node.ExchangeRetries,
		GlobalExchange:  ex,
		OverlapGlobal:   ex != nil && cfg.Node.OverlapGlobal,
		InitModel:       initModel,
		ShuffleSeed:     shuffleSeed,
	})
	res.Series = tr.Series
	res.EpochsToTarget = tr.EpochsToTarget
	res.BestAccuracy = tr.FinalAccuracy
	res.Params = tr.Model
	res.Scheduler = tr.Sched
	res.Wall = tr.Wall
	res.WallImagesPerSec = metrics.MeanImagesPerSec(tr.Wall)
	res.RuntimeStats = tr.RuntimeStats
	res.Mem = tr.Mem
	if cfg.tunesOnline() {
		res.LearnersPerGPU = max(1, tr.K/cfg.GPUs)
		res.TuneHistory = tr.TuneHistory
	}
	res.TTASeconds = -1
	if cfg.TargetAccuracy > 0 {
		if t, ok := metrics.TTA(tr.Series, cfg.TargetAccuracy); ok {
			res.TTASeconds = t
		}
	}
	return &res
}

// trainLoopback is Train's path for Servers > 1 on the simulated transport:
// the cluster's ranks run in this process, each the same per-rank driver a
// TCP node runs, averaging through an in-memory exchanger. The cluster
// average model is replicated bit for bit, so the Result is rank 0's, with
// the ranks' measured throughputs summed; snapshots (and the model feed)
// are rank 0's too.
func trainLoopback(cfg Config, base Result) *Result {
	hub := core.NewLoopback(cfg.Servers)
	results := make([]*Result, cfg.Servers)
	// Each rank's trainer sets and restores the process-wide learner count
	// around itself; concurrent ranks interleave those, so the value to come
	// back to is saved here.
	defer tensor.SetActiveLearners(tensor.ActiveLearners())
	var wg sync.WaitGroup
	for rank := range results {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			// A rank that is done (or panics) releases peers still waiting
			// for it in a round.
			defer hub.Close()
			var publish func(Snapshot)
			if rank == 0 {
				publish = cfg.OnSnapshot
			}
			results[rank] = trainRank(cfg, base, rank, hub.Rank(rank), nil, publish)
		}(rank)
	}
	wg.Wait()
	res := results[0]
	for _, r := range results[1:] {
		res.WallImagesPerSec += r.WallImagesPerSec
	}
	return res
}

// Throughput measures simulated training throughput (images/s) for a
// configuration without running the statistical plane.
func Throughput(cfg Config) (float64, error) {
	if err := cfg.fillDefaults(); err != nil {
		return 0, err
	}
	m, _ := resolveLearners(cfg)
	return hardwareThroughput(cfg, m), nil
}

// TuneLearners runs Algorithm 2 and returns the chosen learners-per-GPU
// with the decision history.
func TuneLearners(model Model, gpus, batch int) (int, []autotune.Decision) {
	r := autotune.Tune(autotune.Config{Model: model, GPUs: gpus, Batch: batch})
	return r.Chosen, r.History
}
