package core

import (
	"math"
	"testing"
	"time"

	"crossbow/internal/nn"
	"crossbow/internal/tensor"
)

func fcfsCfg() TrainConfig {
	cfg := determinismCfg()
	cfg.Scheduler = SchedFCFS
	cfg.GPUs, cfg.LearnersPerGPU = 1, 3
	cfg.Tau = 2
	return cfg
}

// TestFCFSReplayBitIdentical is the barrier-free determinism contract: a
// live FCFS run's trajectory is fully determined by its assignment log.
// Replaying the log sequentially reproduces the losses, accuracies and
// final weights bit for bit, even though the live run's learners raced for
// staged batches and synchronised without a barrier.
func TestFCFSReplayBitIdentical(t *testing.T) {
	cfg := fcfsCfg()
	live := Train(cfg)

	if len(live.SeqLog) != cfg.K() {
		t.Fatalf("assignment log covers %d learners, want %d", len(live.SeqLog), cfg.K())
	}
	replay := ReplayFCFS(cfg, live.SeqLog)
	resultsBitIdentical(t, "fcfs-replay", live, replay)
}

// TestFCFSConsumesEveryBatchOnce: the FCFS binding hands each staged batch
// to exactly one learner, and every learner runs the same iteration count.
func TestFCFSConsumesEveryBatchOnce(t *testing.T) {
	cfg := fcfsCfg()
	res := Train(cfg)

	iters := len(res.SeqLog[0])
	seen := map[int]bool{}
	for j, l := range res.SeqLog {
		if len(l) != iters {
			t.Fatalf("learner %d ran %d iterations, want %d", j, len(l), iters)
		}
		for _, s := range l {
			if seen[s] {
				t.Fatalf("batch seq %d consumed twice", s)
			}
			seen[s] = true
		}
	}
	if len(seen) != iters*cfg.K() {
		t.Fatalf("consumed %d distinct batches, want %d", len(seen), iters*cfg.K())
	}
}

// TestFCFSLearnsLikeLockstep: barrier-free execution changes the batch
// binding, not the algorithm — an FCFS run must reach an accuracy in the
// same range as the lockstep oracle on the same problem.
func TestFCFSLearnsLikeLockstep(t *testing.T) {
	cfg := determinismCfg()
	cfg.GPUs, cfg.LearnersPerGPU = 1, 2
	cfg.MaxEpochs = 4
	lock := Train(cfg)

	cfg.Scheduler = SchedFCFS
	fcfs := Train(cfg)

	if fcfs.FinalAccuracy < lock.FinalAccuracy-0.10 {
		t.Fatalf("fcfs accuracy %.3f far below lockstep %.3f", fcfs.FinalAccuracy, lock.FinalAccuracy)
	}
	if fcfs.RuntimeStats.Rounds == 0 {
		t.Fatal("fcfs run applied no synchronisation rounds")
	}
}

// TestContributeApplyMatchesExchange: the barrier-free τ-boundary path —
// per-learner fused correction+step (ContributeStep) plus an index-ordered
// fold (ApplyContributions) — is bit-identical to the lockstep Step
// (exchange then local steps) when both run against the same average
// model. This is the property that lets the two schedulers share one
// optimiser.
func TestContributeApplyMatchesExchange(t *testing.T) {
	const n = 4097 // four whole blocks and a one-element tail
	r := tensor.NewRNG(11)
	w0 := make([]float32, n)
	for i := range w0 {
		w0[i] = float32(r.NormFloat64())
	}
	t.Run("synthetic", func(t *testing.T) {
		contributeApplyMatchesExchange(t, w0, [][2]int{{100, 140}, {n - 7, n}})
	})
	// The benchmark's model with the network's own batch-norm ranges.
	t.Run("resnet32", func(t *testing.T) {
		w0, state := benchModel(nn.ResNet32)
		contributeApplyMatchesExchange(t, w0, state)
	})
}

func contributeApplyMatchesExchange(t *testing.T, w0 []float32, state [][2]int) {
	const k = 3
	n := len(w0)
	mk := func(seed uint64) (*SMA, [][]float32, [][]float32) {
		s := NewSMA(SMAConfig{
			LearnRate: 0.1, Momentum: 0.9, LocalMomentum: 0.6, StateRanges: state,
		}, w0, k)
		ws := make([][]float32, k)
		gs := make([][]float32, k)
		rr := tensor.NewRNG(seed)
		for j := range ws {
			ws[j] = make([]float32, n)
			gs[j] = make([]float32, n)
			for i := range ws[j] {
				ws[j][i] = w0[i] + float32(rr.NormFloat64())*0.01
			}
		}
		return s, ws, gs
	}

	// Several rounds so momentum history (z_prev, velocities) participates.
	const rounds = 3
	a, wsA, gsA := mk(23)
	b, wsB, gsB := mk(23)
	gr := tensor.NewRNG(37)
	corr := make([][]float32, k)
	for j := range corr {
		corr[j] = make([]float32, n)
	}
	for round := 0; round < rounds; round++ {
		// Fresh identical gradients each round.
		for j := 0; j < k; j++ {
			for i := 0; i < n; i++ {
				g := float32(gr.NormFloat64())
				gsA[j][i], gsB[j][i] = g, g
			}
		}

		a.Step(wsA, gsA) // lockstep: exchange, then local steps

		for j := 0; j < k; j++ {
			b.ContributeStep(j, wsB[j], gsB[j], corr[j])
		}
		b.ApplyContributions(corr)

		for i := range a.z {
			if math.Float32bits(a.z[i]) != math.Float32bits(b.z[i]) {
				t.Fatalf("round %d: z[%d] diverges: %v vs %v", round, i, a.z[i], b.z[i])
			}
		}
		for j := range wsA {
			for i := range wsA[j] {
				if math.Float32bits(wsA[j][i]) != math.Float32bits(wsB[j][i]) {
					t.Fatalf("round %d: w[%d][%d] diverges: %v vs %v", round, j, i, wsA[j][i], wsB[j][i])
				}
			}
		}
	}
}

// TestFCFSReplayOfEarlyStoppedRun: a live FCFS run that stops on
// TargetAcc leaves a shorter assignment log; replaying it must cover
// exactly the epochs the log records and reproduce them bit for bit.
func TestFCFSReplayOfEarlyStoppedRun(t *testing.T) {
	cfg := fcfsCfg()
	cfg.MaxEpochs = 6
	cfg.TargetAcc = 0.01 // reached immediately: the run stops after epoch 1
	live := Train(cfg)
	if len(live.Series) >= cfg.MaxEpochs {
		t.Fatalf("run did not stop early (%d epochs)", len(live.Series))
	}
	replay := ReplayFCFS(cfg, live.SeqLog)
	resultsBitIdentical(t, "fcfs-replay-early-stop", live, replay)
	if replay.EpochsToTarget != live.EpochsToTarget {
		t.Fatalf("EpochsToTarget %d vs %d", replay.EpochsToTarget, live.EpochsToTarget)
	}
}

// TestLockstepOnlineAutotuneResizes: online tuning under the lockstep
// scheduler resizes the replica pool mid-run over the shared pipeline —
// the reorder buffer's position and held slots must carry over to the
// rebuilt runtime (a dropped handoff deadlocks this test).
func TestLockstepOnlineAutotuneResizes(t *testing.T) {
	done := make(chan *Result, 1)
	go func() {
		cfg := determinismCfg()
		cfg.GPUs, cfg.LearnersPerGPU = 1, 1
		cfg.Scheduler = SchedLockstep
		cfg.AutoTuneLearners = true
		cfg.MaxLearnersPerGPU = 3
		cfg.MaxEpochs = 6
		done <- Train(cfg)
	}()
	select {
	case res := <-done:
		if len(res.TuneHistory) == 0 {
			t.Fatal("online tuner recorded no decisions")
		}
		if len(res.Series) != 6 {
			t.Fatalf("run covered %d epochs, want 6", len(res.Series))
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("lockstep auto-tune run hung (pipeline position lost across resize?)")
	}
}

// TestOnlineAutotuneRuns: an AutoTuneLearners run completes, records
// Algorithm 2 decisions, and still trains (accuracy above chance).
func TestOnlineAutotuneRuns(t *testing.T) {
	cfg := determinismCfg()
	cfg.GPUs, cfg.LearnersPerGPU = 1, 1
	cfg.Scheduler = SchedFCFS
	cfg.AutoTuneLearners = true
	cfg.MaxLearnersPerGPU = 3
	cfg.MaxEpochs = 6
	res := Train(cfg)

	if len(res.TuneHistory) == 0 {
		t.Fatal("online tuner recorded no decisions")
	}
	if res.K < 1 || res.K > 3 {
		t.Fatalf("final learner count %d outside [1, 3]", res.K)
	}
	// Above the 10-class chance level (0.1); the bar is loose because
	// resizes are timing-dependent and each restarts the averaging (§3.2),
	// so accuracy at this tiny scale varies run to run.
	if res.FinalAccuracy < 0.15 {
		t.Fatalf("auto-tuned run failed to train: accuracy %.3f", res.FinalAccuracy)
	}
	if len(res.Wall) != cfg.MaxEpochs {
		t.Fatalf("wall series has %d points, want %d", len(res.Wall), cfg.MaxEpochs)
	}
}
