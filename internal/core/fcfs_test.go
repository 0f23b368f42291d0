package core

import (
	"math"
	"testing"
	"time"

	"crossbow/internal/nn"
	"crossbow/internal/tensor"
)

// capOnlineTuning lowers the online tuner's learners-per-GPU cap for one
// test.
func capOnlineTuning(t *testing.T, m int) {
	prev := maxLearnersPerGPU
	maxLearnersPerGPU = m
	t.Cleanup(func() { maxLearnersPerGPU = prev })
}

func fcfsCfg() Config {
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
	live := Train(cfg, Inputs{})

	if len(live.SeqLog) != cfg.K() {
		t.Fatalf("assignment log covers %d learners, want %d", len(live.SeqLog), cfg.K())
	}
	replay := ReplayFCFS(cfg, Inputs{}, live.SeqLog)
	resultsBitIdentical(t, "fcfs-replay", live, replay)
}

// TestFCFSConsumesEveryBatchOnce: the FCFS binding hands each staged batch
// to exactly one learner, and every learner runs the same iteration count.
func TestFCFSConsumesEveryBatchOnce(t *testing.T) {
	cfg := fcfsCfg()
	res := Train(cfg, Inputs{})

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
	lock := Train(cfg, Inputs{})

	cfg.Scheduler = SchedFCFS
	fcfs := Train(cfg, Inputs{})

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
// TargetAccuracy leaves a shorter assignment log; replaying it must cover
// exactly the epochs the log records and reproduce them bit for bit.
func TestFCFSReplayOfEarlyStoppedRun(t *testing.T) {
	cfg := fcfsCfg()
	cfg.MaxEpochs = 6
	cfg.TargetAccuracy = 0.01 // reached immediately: the run stops after epoch 1
	live := Train(cfg, Inputs{})
	if len(live.Series) >= cfg.MaxEpochs {
		t.Fatalf("run did not stop early (%d epochs)", len(live.Series))
	}
	replay := ReplayFCFS(cfg, Inputs{}, live.SeqLog)
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
	capOnlineTuning(t, 3)
	go func() {
		cfg := determinismCfg()
		cfg.GPUs, cfg.LearnersPerGPU = 1, AutoTune
		cfg.Scheduler = SchedLockstep
		cfg.MaxEpochs = 6
		done <- Train(cfg, Inputs{})
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

// TestOnlineAutotuneRuns: an AutoTune run under FCFS resizes the
// pool as Algorithm 2 decides and keeps training through every resize. The
// tuner is shown a scripted throughput sequence instead of the measured
// one, so the resizes — 1 → 2 → 3 learners, back to 2 and settled — fall on
// the same epochs on any machine at any load, and the verdict rides on the
// training loss, which (unlike accuracy over 64 test samples, 0.16–0.28
// across 40 runs of this very script) moves by a few per cent with the FCFS
// assignment order while the margins asserted here are tens of per cent.
func TestOnlineAutotuneRuns(t *testing.T) {
	cfg := determinismCfg()
	cfg.GPUs, cfg.LearnersPerGPU = 1, AutoTune
	cfg.Scheduler = SchedFCFS
	capOnlineTuning(t, 3)
	cfg.MaxEpochs = 6
	// Epoch 1 is the tuner's warm-up; then a baseline at one learner, a
	// gain at two, none at three. Epochs 5 and 6 run at the settled two.
	script := []float64{0, 100, 200, 205, 205}
	epoch := 0
	res := train(cfg, Inputs{}, func(float64) float64 { epoch++; return script[epoch-1] })

	if len(res.TuneHistory) != 3 || res.K != 2 {
		t.Fatalf("tuner decisions %v ending at %d learners, want probes at 1, 2, 3 and 2 kept", res.TuneHistory, res.K)
	}
	for i, d := range res.TuneHistory {
		if d.M != i+1 {
			t.Fatalf("decision %d probed %d learners: %v", i, d.M, res.TuneHistory)
		}
	}
	if len(res.Wall) != cfg.MaxEpochs || len(res.Series) != cfg.MaxEpochs {
		t.Fatalf("%d wall points and %d epoch points, want %d", len(res.Wall), len(res.Series), cfg.MaxEpochs)
	}
	loss := func(epoch int) float64 { return res.Series[epoch-1].Loss }
	// A resize that lost the model would put the loss back at ln 10.
	for e := 2; e <= cfg.MaxEpochs; e++ {
		if loss(e) >= loss(1) {
			t.Errorf("epoch %d loss %.3f is not below the first epoch's %.3f", e, loss(e), loss(1))
		}
	}
	// Within each constant-k phase of two epochs the loss falls.
	for _, e := range []int{2, 6} {
		if loss(e) >= loss(e-1) {
			t.Errorf("loss rose from %.3f to %.3f inside a constant-k phase (epochs %d–%d)", loss(e-1), loss(e), e-1, e)
		}
	}
}
