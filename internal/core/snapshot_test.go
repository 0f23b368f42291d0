package core

import (
	"math"
	"testing"
)

// Snapshot-consistency pins: a snapshot cut mid-training must be
// bit-identical to the central average model as it stood at the round
// boundary it was cut from — never a torn mixture of two rounds, under
// either scheduler.

// snapshotCfg is a small multi-learner run with mid-epoch round boundaries
// (iterations per epoch is a multiple of τ but snapshots land inside
// epochs too).
func snapshotCfg(sched SchedulerMode) Config {
	cfg := determinismCfg() // ResNet-32, k=2, b=8, 128 samples ⇒ 8 iters/epoch
	cfg.Scheduler = sched
	return cfg
}

func collectSnapshots(cfg *Config, every int) *[]Snapshot {
	snaps := new([]Snapshot)
	cfg.PublishEvery = every
	cfg.OnSnapshot = func(s Snapshot) { *snaps = append(*snaps, s) }
	return snaps
}

func modelsBitIdentical(t *testing.T, label string, a, b []float32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: model length %d != %d", label, len(a), len(b))
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			t.Fatalf("%s: weight %d differs: %v vs %v", label, i, a[i], b[i])
		}
	}
}

// TestSnapshotEpochCountsCompletedEpochs: a snapshot's Epoch is the number
// of epochs it has completed — the number a checkpoint records and a
// rejoining rank resumes after — so the round that ends an epoch counts it
// and a round inside one does not.
func TestSnapshotEpochCountsCompletedEpochs(t *testing.T) {
	cfg := snapshotCfg(SchedLockstep)
	snaps := collectSnapshots(&cfg, 1)
	Train(cfg, Inputs{})
	const itersPerEpoch = 8
	if len(*snaps) != 16 {
		t.Fatalf("cut %d snapshots, want 16", len(*snaps))
	}
	for _, s := range *snaps {
		if want := s.Iter / itersPerEpoch; s.Epoch != want {
			t.Errorf("snapshot of iteration %d has Epoch %d, want %d", s.Iter, s.Epoch, want)
		}
	}
}

// TestSnapshotConsistencyLockstep cross-checks two lockstep runs of the
// same config publishing at different cadences: rounds published by both
// must carry bit-identical models (lockstep is deterministic, so any
// mismatch means a snapshot was not cut exactly at its round boundary),
// and the final snapshot must equal the run's final central model.
func TestSnapshotConsistencyLockstep(t *testing.T) {
	cfgA := snapshotCfg(SchedLockstep)
	snapsP := collectSnapshots(&cfgA, 1) // every round
	resA := Train(cfgA, Inputs{})
	snapsA := *snapsP

	cfgB := snapshotCfg(SchedLockstep)
	snapsBP := collectSnapshots(&cfgB, 3) // every 3rd round, mid-epoch
	Train(cfgB, Inputs{})
	snapsB := *snapsBP

	if len(snapsA) != 16 { // 8 iters/epoch × 2 epochs at τ=1
		t.Fatalf("publish-every-round run cut %d snapshots, want 16", len(snapsA))
	}
	if len(snapsB) != 5 { // rounds 3, 6, 9, 12, 15
		t.Fatalf("publish-every-3 run cut %d snapshots, want 5", len(snapsB))
	}
	byRound := map[int][]float32{}
	for _, s := range snapsA {
		byRound[s.Round] = s.Params
	}
	for _, s := range snapsB {
		want, ok := byRound[s.Round]
		if !ok {
			t.Fatalf("round %d published by the every-3 run but not the every-round run", s.Round)
		}
		modelsBitIdentical(t, "lockstep cadence cross-check", s.Params, want)
	}
	modelsBitIdentical(t, "final snapshot vs final model", snapsA[len(snapsA)-1].Params, resA.Model)
}

// TestSnapshotConsistencyLockstepEpochBoundary pins absolute correctness at
// epoch-boundary rounds: a snapshot cut mid-run at the end of epoch 1 must
// equal the final model of an identical run trained for exactly one epoch.
func TestSnapshotConsistencyLockstepEpochBoundary(t *testing.T) {
	cfg := snapshotCfg(SchedLockstep)
	snapsP := collectSnapshots(&cfg, 1)
	Train(cfg, Inputs{})
	snaps := *snapsP

	one := snapshotCfg(SchedLockstep)
	one.MaxEpochs = 1
	resOne := Train(one, Inputs{})

	const epochRounds = 8 // 8 iterations per epoch at τ=1
	var cut []float32
	for _, s := range snaps {
		if s.Round == epochRounds {
			if s.Epoch != 1 {
				t.Fatalf("round %d tagged epoch %d, want 1", s.Round, s.Epoch)
			}
			cut = s.Params
		}
	}
	if cut == nil {
		t.Fatalf("no snapshot at round %d", epochRounds)
	}
	modelsBitIdentical(t, "mid-run snapshot vs one-epoch run", cut, resOne.Model)
}

// TestSnapshotConsistencyFCFS is the concurrent-cut pin: a live FCFS run
// publishes snapshots from inside the round-completion window while other
// learners keep training barrier-free; replaying the run's assignment log
// (which re-executes the trajectory serially and deterministically) must
// produce bit-identical snapshots at the same rounds. A torn or mis-timed
// live snapshot cannot match the replay's round-boundary model.
func TestSnapshotConsistencyFCFS(t *testing.T) {
	for _, tau := range []int{1, 2} {
		cfg := snapshotCfg(SchedFCFS)
		cfg.Tau = tau
		liveP := collectSnapshots(&cfg, tau) // every round
		res := Train(cfg, Inputs{})
		live := *liveP

		replayCfg := snapshotCfg(SchedFCFS)
		replayCfg.Tau = tau
		replayedP := collectSnapshots(&replayCfg, tau)
		ReplayFCFS(replayCfg, Inputs{}, res.SeqLog)
		replayed := *replayedP

		if len(live) == 0 || len(live) != len(replayed) {
			t.Fatalf("τ=%d: live run cut %d snapshots, replay %d", tau, len(live), len(replayed))
		}
		for i := range live {
			if live[i].Round != replayed[i].Round {
				t.Fatalf("τ=%d: snapshot %d at round %d live vs %d replayed",
					tau, i, live[i].Round, replayed[i].Round)
			}
			if live[i].Iter != live[i].Round*tau {
				t.Fatalf("τ=%d: round %d reports iter %d, want %d",
					tau, live[i].Round, live[i].Iter, live[i].Round*tau)
			}
			modelsBitIdentical(t, "live-vs-replay", live[i].Params, replayed[i].Params)
		}
		modelsBitIdentical(t, "final snapshot vs final model", live[len(live)-1].Params, res.Model)
	}
}

// TestSMASnapshotCentralVersion pins the optimiser-level API: the round
// counter advances once per consensus exchange under both the lockstep Step
// path and the FCFS contribute/apply pair, and SnapshotCentral copies z
// exactly.
func TestSMASnapshotCentralVersion(t *testing.T) {
	w0 := []float32{1, 2, 3, 4}
	k := 2
	cfg := SMAConfig{LearnRate: 0.1, Momentum: 0.9, Tau: 2}
	s := NewSMA(cfg, w0, k)
	ws := [][]float32{append([]float32(nil), w0...), append([]float32(nil), w0...)}
	gs := [][]float32{{1, 1, 1, 1}, {2, 2, 2, 2}}

	dst := make([]float32, len(w0))
	if r := s.SnapshotCentral(dst); r != 0 {
		t.Fatalf("fresh optimiser at round %d, want 0", r)
	}
	s.Step(ws, gs) // iter 1: no sync at τ=2
	if r := s.Rounds(); r != 0 {
		t.Fatalf("non-boundary Step advanced the round to %d", r)
	}
	s.Step(ws, gs) // iter 2: sync
	if r := s.SnapshotCentral(dst); r != 1 {
		t.Fatalf("after one exchange, round %d, want 1", r)
	}
	modelsBitIdentical(t, "SnapshotCentral copy", dst, s.Average())

	// FCFS path: one fused contribute per learner, then the fold.
	corr := [][]float32{make([]float32, len(w0)), make([]float32, len(w0))}
	s.ContributeStep(0, ws[0], gs[0], corr[0])
	s.ContributeStep(1, ws[1], gs[1], corr[1])
	s.ApplyContributions(corr)
	if r := s.SnapshotCentral(dst); r != 2 {
		t.Fatalf("after ApplyContributions, round %d, want 2", r)
	}
	modelsBitIdentical(t, "SnapshotCentral copy after apply", dst, s.Average())

	if err := func() (err error) {
		defer func() {
			if recover() == nil {
				err = errNoPanic
			}
		}()
		s.SnapshotCentral(make([]float32, 2))
		return nil
	}(); err != nil {
		t.Fatal("SnapshotCentral accepted a wrong-sized destination")
	}
}

var errNoPanic = errorString("expected panic")

type errorString string

func (e errorString) Error() string { return string(e) }

// TestSnapshotVersionsMonotoneAcrossResize pins round-version monotonicity
// through an online-autotuning resize, which rebuilds the optimiser (and
// its phase-local round counter) mid-run.
func TestSnapshotVersionsMonotoneAcrossResize(t *testing.T) {
	var rounds []int
	capOnlineTuning(t, 2)
	cfg := Config{
		Model: snapshotCfg(SchedFCFS).Model, Algo: AlgoSMA,
		GPUs: 1, Batch: 8, Momentum: 0.9,
		MaxEpochs: 3, Seed: 42,
		TrainSamples: 128, TestSamples: 64,
		Scheduler:      SchedFCFS,
		LearnersPerGPU: AutoTune,
		PublishEvery:   1,
		OnSnapshot:     func(s Snapshot) { rounds = append(rounds, s.Round) },
	}
	Train(cfg, Inputs{})
	if len(rounds) == 0 {
		t.Fatal("no snapshots published")
	}
	for i := 1; i < len(rounds); i++ {
		if rounds[i] <= rounds[i-1] {
			t.Fatalf("snapshot rounds not strictly increasing across resize: %v", rounds)
		}
	}
}
