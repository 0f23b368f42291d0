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
// run is the same discrete-event engine as a single server's
// (internal/engine), N simulated servers joined by the Config.Interconnect
// cost model.
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
)

// AutoTune, used as LearnersPerGPU, lets Algorithm 2 choose the learner
// count that saturates training throughput. With the default scheduler the
// count is probed on the hardware simulator before the run; with
// Scheduler: FCFS the tuner runs online, adapting the learner count to
// measured wall-clock throughput while training.
const AutoTune = core.AutoTune

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

// Config configures a training run: the model, the algorithm and its
// hyper-parameters, the simulated hardware, the cluster and the runtime.
// It is the trainer's own Config, declared, defaulted and validated there
// once (FillDefaults, which Train, Throughput and ClusterSweep call); each
// field's comment gives its default.
type Config = core.Config

// Deterministic is re-exported for the frozen benchmark module only (see
// the benchcompat block of core.Config).
const Deterministic = core.Deterministic

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
	// ThroughputImgSec is the simulated training throughput: 30 iterations
	// of the configuration on the simulated server or cluster, run afresh
	// on every Train call. The simulator has an engine for SMA and one for
	// the SSGD baseline; EASGD and SMAHierarchical are priced on SMA's.
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

// fillDefaults fills cfg's defaults and, once it has passed every check,
// moves the process-wide kernel worker budget to its KernelThreads.
func fillDefaults(cfg *Config) error {
	if err := cfg.FillDefaults(); err != nil {
		return fmt.Errorf("crossbow: %w", err)
	}
	if cfg.KernelThreads > 0 {
		tensor.SetWorkerBudget(cfg.KernelThreads)
	}
	return nil
}

// tunesOnline reports whether AutoTune means the *online* Algorithm 2: with
// the FCFS runtime the statistical plane starts at one learner per GPU and
// resizes against measured wall-clock throughput while training. Otherwise
// the count is probed on the hardware simulator up front (resolveLearners).
func tunesOnline(cfg Config) bool {
	return cfg.LearnersPerGPU == AutoTune && cfg.Scheduler == FCFS
}

// planeConfig is the hardware-plane shape of a run at m learners per GPU:
// the one configuration both the tuner and the throughput measurement
// build their engines from.
func planeConfig(cfg Config, m int) engine.Config {
	return engine.Config{
		Model: cfg.Model, Servers: cfg.Servers, GPUs: cfg.GPUs,
		LearnersPerGPU: m, Batch: cfg.Batch,
		Tau: cfg.Tau, TauGlobal: cfg.TauGlobal,
		Overlap: true, Net: cfg.Interconnect,
	}
}

// resolveLearners returns the learners-per-GPU count m of a run: the
// configured one, or with AutoTune the offline tuner's choice for the run's
// hardware-plane shape (with its decision history). The tuner is
// deterministic in that shape, so every rank of a cluster run resolves the
// same m.
func resolveLearners(cfg Config) (int, []autotune.Decision) {
	if cfg.LearnersPerGPU == AutoTune {
		tuned := autotune.Tune(planeConfig(cfg, 0))
		return tuned.Chosen, tuned.History
	}
	return cfg.LearnersPerGPU, nil
}

// hardwareThroughput measures the hardware plane: simulated training
// throughput (images/s, the whole cluster's) for cfg at m learners per GPU
// — the S-SGD baseline, or the SMA engine with, above one server, its
// cross-server average tasks over cfg.Interconnect. EASGD and
// SMAHierarchical run on the SMA engine (TestComparatorsPricedOnSMAPlane).
func hardwareThroughput(cfg Config, m int) float64 {
	const iters = 30
	if cfg.Algo == SSGD {
		return engine.NewSSGD(cfg.Model, cfg.GPUs, cfg.Batch*cfg.GPUs*m).Throughput(iters)
	}
	return engine.New(planeConfig(cfg, m)).Throughput(iters)
}

// Train runs the configured experiment end to end: optional learner
// auto-tuning, hardware-efficiency measurement on the simulated server or
// cluster, and genuine training of the scaled model for statistical
// efficiency — on this server, as Servers ranks in this process
// (TransportSimulated), or as this process's rank of a TCP cluster.
func Train(cfg Config) (*Result, error) {
	if err := fillDefaults(&cfg); err != nil {
		return nil, err
	}
	if cfg.PublishAddr != "" {
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
	if !tunesOnline(cfg) { // else refined from the run's TuneHistory
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
	return trainRank(cfg, base, core.Inputs{}), nil
}

// trainRank runs the statistical plane — real training of the scaled model
// on the task runtime — for one rank and fills in the run's Result from
// base. A single-server run is rank 0 with no exchanger; a cluster rank
// trains its own server's learners on a rank-derived batch stream and
// averages with its peers through in.Exchange (see core.DistClusterSMA),
// warm-started from in.InitModel when it rejoins. cfg.OnSnapshot receives
// the rank's snapshots.
func trainRank(cfg Config, base Result, in core.Inputs) *Result {
	res := base
	online := tunesOnline(cfg)
	if !online {
		cfg.LearnersPerGPU = res.LearnersPerGPU
	}
	in.EpochSeconds = res.EpochSeconds
	in.LocalMomentum = cfg.Momentum // solver momentum inside learners, as released
	tr := core.Train(cfg, in)
	res.Series = tr.Series
	res.EpochsToTarget = tr.EpochsToTarget
	res.BestAccuracy = tr.FinalAccuracy
	res.Params = tr.Model
	res.Scheduler = tr.Sched
	res.Wall = tr.Wall
	res.WallImagesPerSec = metrics.MeanImagesPerSec(tr.Wall)
	res.RuntimeStats = tr.RuntimeStats
	res.Mem = tr.Mem
	if online {
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
	var wg sync.WaitGroup
	for rank := range results {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			// A rank that is done (or panics) releases peers still waiting
			// for it in a round.
			defer hub.Close()
			c := cfg
			if rank != 0 {
				c.OnSnapshot = nil
			}
			results[rank] = trainRank(c, base, core.Inputs{
				Exchange:    hub.Rank(rank),
				ShuffleSeed: shuffleSeedFor(cfg.Seed, rank),
			})
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
	if err := fillDefaults(&cfg); err != nil {
		return 0, err
	}
	m, _ := resolveLearners(cfg)
	return hardwareThroughput(cfg, m), nil
}

// TuneLearners runs Algorithm 2 and returns the chosen learners-per-GPU
// with the decision history.
func TuneLearners(model Model, gpus, batch int) (int, []autotune.Decision) {
	r := autotune.Tune(engine.Config{Model: model, GPUs: gpus, Batch: batch, Overlap: true})
	return r.Chosen, r.History
}
