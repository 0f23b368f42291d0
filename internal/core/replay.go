package core

import (
	"fmt"

	"crossbow/internal/data"
	"crossbow/internal/metrics"
	"crossbow/internal/tensor"
)

// ReplayFCFS re-executes a barrier-free training run from its assignment
// log, sequentially and deterministically. This is the FCFS determinism
// contract made executable: a live FCFS run's only timing-dependent
// artefact is which learner consumed which staged batch (Result.SeqLog) —
// corrections are computed against a round-versioned average model and
// folded in learner-index order, so replaying the same log reproduces the
// live trajectory bit for bit (losses, accuracies and weights).
//
// cfg must be the live run's config (flat SMA, fixed learner count).
// seqLog is the live run's Result.SeqLog; a log shorter than MaxEpochs —
// a run that stopped early on TargetAcc — replays the epochs it covers,
// and the replayed run stops at the same point by the same rule.
func ReplayFCFS(cfg TrainConfig, seqLog [][]int) *Result {
	cfg.fillDefaults()
	cfg.Scheduler = SchedFCFS
	cfg.validate()
	if cfg.AutoTuneLearners {
		panic("core: ReplayFCFS requires a fixed learner count")
	}
	k := cfg.K()
	if len(seqLog) != k {
		panic(fmt.Sprintf("core: assignment log covers %d learners, want %d", len(seqLog), k))
	}

	// The run is rebuilt through the same constructor as the live one, so
	// replica/eval RNG streams and build order cannot diverge.
	e := newTrainEnv(&cfg, k)
	sma := buildOpt(&cfg, e.w0, k, e.nets[0].StateRanges()).(*SMA)
	corr := make([][]float32, k)
	for j := range corr {
		corr[j] = make([]float32, len(e.w0))
	}

	// Epochs covered by the log: every learner runs the same per-epoch
	// iteration count, so a log from an early-stopped run replays the
	// epochs it recorded.
	iterPerEpoch := e.iterPerEpoch(k)
	epochs := cfg.MaxEpochs
	for j := 0; j < k; j++ {
		if got := len(seqLog[j]) / iterPerEpoch; got < epochs {
			epochs = got
		}
	}
	if epochs == 0 {
		panic(fmt.Sprintf("core: assignment log covers less than one epoch (%d iterations, want %d)",
			len(seqLog[0]), iterPerEpoch))
	}

	// Reconstruct the staged-batch draw sequence: seq s is the s-th index
	// set the pipeline's batcher yields.
	maxSeq := 0
	for _, l := range seqLog {
		for _, s := range l {
			if s > maxSeq {
				maxSeq = s
			}
		}
	}
	batcher := data.NewBatcher(e.train.Len(), cfg.BatchPerLearner, cfg.Seed+21)
	batches := make([][]int, maxSeq+1)
	for s := range batches {
		batches[s] = append([]int(nil), batcher.Next()...)
	}

	x := tensor.New(append([]int{cfg.BatchPerLearner}, e.train.Shape...)...)
	labels := make([]int, cfg.BatchPerLearner)
	losses := make([]float64, k)

	// Replayed runs publish snapshots at the same round boundaries as the
	// live run they re-execute: round r's model is bit-identical to the
	// live round-r model, so the snapshot stream is reproducible too.
	pub := newSnapshotPublisher(&cfg)

	res := &Result{K: k, EpochsToTarget: -1, Sched: SchedFCFS, SeqLog: seqLog}
	lr := cfg.LearnRate
	done := 0
	for epoch := 1; epoch <= epochs; epoch++ {
		if cfg.Schedule != nil {
			nlr := cfg.Schedule(epoch, cfg.LearnRate)
			if nlr != lr {
				lr = nlr
				sma.SetLearnRate(lr)
				if cfg.RestartOnLRChange {
					sma.Restart(e.ws)
				}
			}
		}
		pub.setEpoch(epoch)
		perLearner := make([]float64, k)
		for t := 1; t <= iterPerEpoch; t++ {
			i := done + t // lifetime iteration, uniform across learners
			// Gradients first: every learner's τ-boundary gradient is
			// computed on the replica as it stood before the exchange,
			// matching both Alg 1 and the live runtime's task order.
			for j := 0; j < k; j++ {
				e.train.Gather(batches[seqLog[j][i-1]], x, labels)
				tensor.ZeroSlice(e.gs[j])
				losses[j] = e.nets[j].LossAndGrad(x, labels)
				perLearner[j] += losses[j]
			}
			if i%cfg.Tau == 0 {
				// τ-boundary: fused correction + gradient step per learner,
				// then the index-ordered fold — the live runtime's op
				// sequence, serialised.
				for j := 0; j < k; j++ {
					sma.ContributeStep(j, e.ws[j], e.gs[j], corr[j])
				}
				sma.ApplyContributions(corr)
				if pub != nil {
					if r := i / cfg.Tau; r%pub.everyRnds == 0 {
						pub.publish(sma, r)
					}
				}
			} else {
				for j := 0; j < k; j++ {
					sma.LocalStep(j, e.ws[j], e.gs[j])
				}
			}
		}
		done += iterPerEpoch

		// Epoch loss folds per-learner sums in index order, as the live
		// runtime does at the epoch join.
		var lossSum float64
		for j := 0; j < k; j++ {
			lossSum += perLearner[j]
		}
		acc := evaluate(e.evalNet, sma.Average(), e.evalGrad, e.test, e.evalBatch, e.es)
		res.Series = append(res.Series, metrics.EpochPoint{
			Epoch:   epoch,
			TimeSec: float64(epoch) * cfg.EpochSeconds,
			TestAcc: acc,
			Loss:    lossSum / float64(max(1, iterPerEpoch*k)),
		})
		if cfg.TargetAcc > 0 {
			if ep, ok := metrics.EpochsToAccuracy(res.Series, cfg.TargetAcc); ok {
				res.EpochsToTarget = ep
				break
			}
		}
	}
	if res.EpochsToTarget < 0 && cfg.TargetAcc > 0 {
		if ep, ok := metrics.EpochsToAccuracy(res.Series, cfg.TargetAcc); ok {
			res.EpochsToTarget = ep
		}
	}
	res.FinalAccuracy = metrics.BestAccuracy(res.Series)
	res.Model = append([]float32(nil), sma.Average()...)
	return res
}
