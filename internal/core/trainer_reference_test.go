package core

import (
	"fmt"
	"sync"
	"testing"

	"crossbow/internal/data"
	"crossbow/internal/metrics"
	"crossbow/internal/nn"
	"crossbow/internal/tensor"
)

// referenceTrain is the pre-runtime trainer, kept verbatim as the oracle
// the lockstep scheduler is pinned against: per-iteration goroutine spawn,
// synchronous batch materialisation, a global barrier, and a single-
// threaded optimiser step. Any numerical divergence between Train (which
// now drives the engine's task runtime and the staged-batch pipeline) and
// this loop is a regression.
func referenceTrain(cfg TrainConfig) *Result {
	cfg.fillDefaults()
	k := cfg.K()

	dataCfg := data.ForModel(cfg.Model, cfg.Seed, cfg.DataNoise)
	if cfg.TrainSamples > 0 {
		dataCfg.Train = cfg.TrainSamples
	}
	if cfg.TestSamples > 0 {
		dataCfg.Test = cfg.TestSamples
	}
	train, test := data.Synthesize(dataCfg)

	masterRNG := tensor.NewRNG(cfg.Seed + 7)
	nets := make([]*nn.Network, k)
	ws := make([][]float32, k)
	gs := make([][]float32, k)
	for j := 0; j < k; j++ {
		nets[j] = nn.BuildScaled(cfg.Model, cfg.BatchPerLearner, masterRNG.Split())
	}
	w0 := nets[0].Init(tensor.NewRNG(cfg.Seed + 13))
	for j := 0; j < k; j++ {
		ws[j] = append([]float32(nil), w0...)
		gs[j] = make([]float32, len(w0))
		nets[j].Bind(ws[j], gs[j])
	}

	opt := buildOpt(&cfg, w0, k, nets[0].StateRanges())

	evalBatch := 128
	if test.Len() < evalBatch {
		evalBatch = test.Len()
	}
	evalNet := nn.BuildScaled(cfg.Model, evalBatch, tensor.NewRNG(cfg.Seed+99))
	evalGrad := make([]float32, len(w0))
	evalScratch := newEvalScratch(evalBatch, test.Shape)

	shuffleSeed := cfg.Seed + 21
	if cfg.ShuffleSeed != 0 {
		shuffleSeed = cfg.ShuffleSeed
	}
	batcher := data.NewBatcher(train.Len(), cfg.BatchPerLearner, shuffleSeed)
	inputs := make([]*tensor.Tensor, k)
	labels := make([][]int, k)
	batchIdx := make([][]int, k)
	for j := 0; j < k; j++ {
		inputs[j] = tensor.New(append([]int{cfg.BatchPerLearner}, train.Shape...)...)
		labels[j] = make([]int, cfg.BatchPerLearner)
		batchIdx[j] = make([]int, cfg.BatchPerLearner)
	}

	res := &Result{K: k, EpochsToTarget: -1}
	iterPerEpoch := batcher.BatchesPerEpoch() / k
	if iterPerEpoch == 0 {
		iterPerEpoch = 1
	}
	lr := cfg.LearnRate
	var lossSum float64
	var lossCount int
	losses := make([]float64, k)

	for epoch := 1; epoch <= cfg.MaxEpochs; epoch++ {
		if cfg.Schedule != nil {
			nlr := cfg.Schedule(epoch, cfg.LearnRate)
			if nlr != lr {
				lr = nlr
				opt.SetLearnRate(lr)
				if cfg.RestartOnLRChange {
					restart(opt, ws)
				}
			}
		}
		lossSum, lossCount = 0, 0
		for it := 0; it < iterPerEpoch; it++ {
			for j := 0; j < k; j++ {
				copy(batchIdx[j], batcher.Next())
			}
			var wg sync.WaitGroup
			for j := 0; j < k; j++ {
				wg.Add(1)
				go func(j int) {
					defer wg.Done()
					train.Gather(batchIdx[j], inputs[j], labels[j])
					tensor.ZeroSlice(gs[j])
					losses[j] = nets[j].LossAndGrad(inputs[j], labels[j])
				}(j)
			}
			wg.Wait()
			for _, l := range losses {
				lossSum += l
			}
			lossCount += k
			opt.Step(ws, gs)
		}

		acc := evaluate(evalNet, opt.Average(), evalGrad, test, evalBatch, evalScratch)
		res.Series = append(res.Series, metrics.EpochPoint{
			Epoch:   epoch,
			TimeSec: float64(epoch) * cfg.EpochSeconds,
			TestAcc: acc,
			Loss:    lossSum / float64(max(1, lossCount)),
		})
		if cfg.TargetAcc > 0 {
			if e, ok := metrics.EpochsToAccuracy(res.Series, cfg.TargetAcc); ok {
				res.EpochsToTarget = e
				break
			}
		}
	}
	if res.EpochsToTarget < 0 && cfg.TargetAcc > 0 {
		if e, ok := metrics.EpochsToAccuracy(res.Series, cfg.TargetAcc); ok {
			res.EpochsToTarget = e
		}
	}
	res.FinalAccuracy = metrics.BestAccuracy(res.Series)
	res.Model = append([]float32(nil), opt.Average()...)
	return res
}

// TestLockstepBitIdenticalToReference is the refactor's determinism pin:
// Scheduler: SchedLockstep through the task runtime (staged batches,
// persistent replica-pool workers) reproduces the pre-refactor trainer bit
// for bit — same losses, accuracies and weights — at every kernel worker
// setting (the programmatic form of CROSSBOW_PARALLELISM).
func TestLockstepBitIdenticalToReference(t *testing.T) {
	prev := tensor.WorkerBudget()
	defer tensor.SetWorkerBudget(prev)

	cfg := determinismCfg()
	for _, workers := range []int{1, 4, 16} {
		tensor.SetParallelism(workers)
		ref := referenceTrain(cfg)
		got := Train(cfg)
		resultsBitIdentical(t, "lockstep-vs-reference", ref, got)
	}
}

// TestLockstepReferencePinAllAlgorithms extends the pin across every
// optimiser the lockstep runtime schedules, including the hierarchical and
// cluster tiers.
func TestLockstepReferencePinAllAlgorithms(t *testing.T) {
	for _, algo := range []Algorithm{AlgoSMAHier, AlgoSSGD, AlgoEASGD, AlgoASGD} {
		cfg := determinismCfg()
		cfg.Algo = algo
		if algo == AlgoSMAHier {
			cfg.GPUs, cfg.LearnersPerGPU = 2, 2
		}
		ref := referenceTrain(cfg)
		got := Train(cfg)
		resultsBitIdentical(t, string(algo), ref, got)
	}
	// The cluster tier: the reference loop per rank against Train per rank,
	// two ranks over the loopback.
	cfg := determinismCfg()
	cfg.Algo = AlgoSMACluster
	cfg.GPUs, cfg.LearnersPerGPU = 1, 2
	ref := trainRanks(2, cfg, referenceTrain)
	got := trainRanks(2, cfg, Train)
	for r := range ref {
		resultsBitIdentical(t, fmt.Sprintf("sma-cluster rank %d", r), ref[r], got[r])
	}
}

// TestLockstepPinWithScheduleRestart pins the learning-rate schedule and
// §3.2 restart path through the runtime driver.
func TestLockstepPinWithScheduleRestart(t *testing.T) {
	cfg := determinismCfg()
	cfg.MaxEpochs = 3
	cfg.Schedule = StepDecay(0.1, 2)
	cfg.RestartOnLRChange = true
	ref := referenceTrain(cfg)
	got := Train(cfg)
	resultsBitIdentical(t, "schedule-restart", ref, got)
}
