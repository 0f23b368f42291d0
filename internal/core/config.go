package core

import (
	"fmt"

	"crossbow/internal/engine"
	"crossbow/internal/gpusim"
	"crossbow/internal/nn"
	"crossbow/internal/tensor"
	"crossbow/internal/transport"
)

// AutoTune, used as LearnersPerGPU, lets Algorithm 2 choose the learner
// count that saturates training throughput. With the default scheduler the
// count is probed on the hardware simulator before the run; with
// Scheduler: FCFS the tuner runs online, adapting the learner count to
// measured wall-clock throughput while training. (Train itself always
// tunes online: the crossbow API resolves the offline choice first.)
const AutoTune = -1

// Transport selects how the cross-server tier of a cluster run exchanges
// the central average model.
type Transport string

const (
	// TransportSimulated (the default) runs every server of the cluster as
	// a rank of this process: the ranks train concurrently, each exactly
	// what a TCP node trains (own learners, own batch stream), and all-reduce
	// their reference models through memory — the socket-free, bit-
	// deterministic twin of TransportTCP. Time is simulated: the hardware
	// plane charges the Interconnect cost model for each exchange.
	TransportSimulated Transport = "simulated"
	// TransportTCP runs ONE server per process: this process trains its
	// local learners and all-reduces the server reference model with its
	// peers over real TCP connections (Config.Node describes the mesh).
	// Launch one process per entry of Node.Peers; every process must use
	// the same Config apart from Node.Rank.
	TransportTCP Transport = "tcp"
)

// Config configures a training run. It is declared, defaulted and
// validated here once (FillDefaults); crossbow.Config is this type.
type Config struct {
	// Model is the benchmark to train. Required.
	Model nn.ModelID
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
	// it is the cost-model oracle reported next to the measured transport
	// statistics; it chooses nothing about the real collective, which is
	// always the transport's one owner-based all-reduce.
	Interconnect gpusim.Interconnect
	// Transport selects the cross-server exchange plane with Servers > 1:
	// TransportSimulated (default) runs every server as a rank of this
	// process, exchanging through memory, with time charged by the
	// Interconnect cost model; TransportTCP runs one server per OS process,
	// exchanging the average model over real sockets. The ranks are the
	// same either way.
	Transport Transport
	// Node describes this process's rank and the cluster's address list
	// with Transport: TransportTCP. Its OverlapGlobal applies to every
	// cluster rank, on either transport.
	Node transport.Config
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
	Schedule Schedule
	Restart  bool
	// TrainSamples/TestSamples override the synthetic dataset sizes. Test
	// accuracy is measured over the first ⌊TestSamples/128⌋·128 test
	// samples: a remainder beyond the last multiple of 128 is never
	// evaluated (a test set of fewer than 128 samples is evaluated whole).
	TrainSamples, TestSamples int
	// KernelThreads bounds the compute kernels' worker budget (process-
	// wide; see tensor.SetWorkerBudget). Zero keeps the current setting —
	// by default runtime.NumCPU(), overridable with CROSSBOW_PARALLELISM.
	// The budget is shared by count: while n learning tasks and serving
	// batches are in flight in the process, each kernel call gets
	// max(1, budget/n) workers, so task- and kernel-level parallelism never
	// oversubscribe it, and evaluation, with none in flight, gets all of
	// it. Results are bit-identical at any value.
	KernelThreads int
	// Scheduler selects the task runtime's scheduling mode: Lockstep
	// (default, bit-deterministic) or FCFS (barrier-free; SMA only,
	// Servers == 1).
	Scheduler SchedulerMode
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
	// callback runs on runtime goroutines, inside the runtime's Publish
	// window with the other learners held back, so it must return quickly
	// and must not call back into the trainer.
	OnSnapshot func(Snapshot)
	// PublishAddr, with PublishEvery set, additionally streams every
	// published snapshot to serving replicas over TCP (DESIGN.md §16): Train
	// runs a ModelPublisher on this address for the duration of the run, and
	// Predictors started with ServeConfig.Follow (or crossbow serve -follow)
	// receive each snapshot as a delta against the model they already hold.
	// OnSnapshot may still be set; it runs after the feed send.
	PublishAddr string

	// benchcompat:begin — the names the frozen benchmark module
	// (benchmark/) still compiles against: this field and Deterministic,
	// which the crossbow package re-exports. There is one kernel contract,
	// so the field selects nothing: it must be left at Deterministic, its
	// zero value. Nothing else in the root module may name them
	// (TestBenchCompatUnused), so the block goes once the benchmark stops
	// naming them.
	KernelMode tensor.KernelMode
}

const Deterministic = tensor.Deterministic

func (c *Config) benchCompat() error {
	if c.KernelMode != Deterministic {
		return fmt.Errorf("Config.KernelMode %d: Fast mode was deleted, leave the field unset", c.KernelMode)
	}
	return nil
}

// benchcompat:end

// K returns the run's learner count g×m (on a cluster run: this rank's).
func (c Config) K() int { return c.GPUs * c.LearnersPerGPU }

// FillDefaults resolves every unset option to its default and rejects a
// configuration no run can honour. It is idempotent, so a Config that has
// been through it may be filled again.
func (c *Config) FillDefaults() error {
	if c.Model == "" {
		return fmt.Errorf("Config.Model is required")
	}
	if _, ok := nn.ScaledConfigs[c.Model]; !ok {
		return fmt.Errorf("unknown model %q", c.Model)
	}
	switch c.Algo {
	case "":
		c.Algo = AlgoSMA
	case AlgoSMA, AlgoSMAHier, AlgoSSGD, AlgoEASGD, AlgoSMACluster:
	default:
		return fmt.Errorf("unknown algorithm %q", c.Algo)
	}
	if c.Servers <= 0 {
		c.Servers = 1
	}
	if c.GPUs <= 0 {
		c.GPUs = 1
	}
	if c.LearnersPerGPU <= 0 && c.LearnersPerGPU != AutoTune {
		c.LearnersPerGPU = 1
	}
	if c.Batch <= 0 {
		c.Batch = engine.DefaultBatch
	}
	if c.LearnRate == 0 {
		c.LearnRate = DefaultLearnRate(c.Model)
	}
	if c.Momentum == 0 {
		c.Momentum = 0.9
	}
	if c.Tau <= 0 {
		c.Tau = 1
	}
	if c.TauGlobal <= 0 {
		c.TauGlobal = 1
	}
	if c.MaxEpochs <= 0 {
		c.MaxEpochs = 30
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Prefetch < 1 {
		c.Prefetch = 2
	}
	if err := c.benchCompat(); err != nil {
		return err
	}
	if c.PublishAddr != "" && c.PublishEvery <= 0 {
		return fmt.Errorf("PublishAddr requires PublishEvery")
	}
	switch c.Scheduler {
	case "", SchedLockstep:
		c.Scheduler = SchedLockstep
	case SchedFCFS:
		if c.Algo != AlgoSMA {
			return fmt.Errorf("Scheduler FCFS requires Algo SMA (got %q)", c.Algo)
		}
		if c.Servers > 1 {
			return fmt.Errorf("Scheduler FCFS is single-server (got Servers %d)", c.Servers)
		}
	default:
		return fmt.Errorf("unknown scheduler %q", c.Scheduler)
	}
	switch c.Transport {
	case "", TransportSimulated:
		c.Transport = TransportSimulated
	case TransportTCP:
		// One process per server: Servers defaults to the peer count.
		if c.Servers <= 1 && len(c.Node.Peers) > 0 {
			c.Servers = len(c.Node.Peers)
		}
		if err := c.Node.FillDefaults(); err != nil {
			return fmt.Errorf("Node: %w", err)
		}
		if err := c.validateTCP(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown transport %q", c.Transport)
	}
	if c.Servers == 1 && c.Transport != TransportTCP {
		if c.Algo == AlgoSMACluster {
			return fmt.Errorf("Algo %q is one rank of a cluster: it needs Servers > 1", c.Algo)
		}
		return nil
	}
	algo, err := ClusterAlgo(c.Algo)
	if err != nil {
		return err
	}
	c.Algo = algo
	if c.Interconnect == (gpusim.Interconnect{}) {
		c.Interconnect = gpusim.Ethernet10G()
	}
	return nil
}

// ClusterAlgo maps an algorithm to the one a cluster run trains with: the
// two-level cluster SMA, whatever SMA flavour was asked for. Algorithms the
// cluster plane does not synchronise hierarchically are an error.
func ClusterAlgo(a Algorithm) (Algorithm, error) {
	switch a {
	case AlgoSMA, AlgoSMAHier, AlgoSMACluster:
		return AlgoSMACluster, nil
	}
	return "", fmt.Errorf("Servers > 1 requires an SMA algorithm (got %q)", a)
}

// validateTCP checks the rules that span Config and its Node, after
// Node.FillDefaults has checked the node itself.
func (c *Config) validateTCP() error {
	if c.Servers != len(c.Node.Peers) {
		return fmt.Errorf("Servers (%d) must equal len(Node.Peers) (%d) on a TCP run", c.Servers, len(c.Node.Peers))
	}
	if c.Scheduler != SchedLockstep {
		return fmt.Errorf("TransportTCP requires the Lockstep scheduler (got %q)", c.Scheduler)
	}
	if c.Node.Snapshot != nil {
		return fmt.Errorf("Node.Snapshot is set by Train, not by the caller")
	}
	return nil
}
