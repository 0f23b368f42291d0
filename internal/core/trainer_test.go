package core

import (
	"testing"

	"crossbow/internal/nn"
	"crossbow/internal/tensor"
)

// Trainer tests run micro configurations (LeNet/ResNet-50 scaled, few
// epochs) so the suite stays fast while still exercising the full loop:
// parallel learners, optimiser steps, evaluation, schedules, restarts.

func TestTrainLeNetConverges(t *testing.T) {
	res := Train(Config{
		Model: nn.LeNet, Algo: AlgoSSGD,
		GPUs: 1, LearnersPerGPU: 1, Batch: 16,
		Momentum: 0.9, MaxEpochs: 8, Seed: 1,
	}, Inputs{})
	if len(res.Series) != 8 {
		t.Fatalf("series has %d epochs, want 8", len(res.Series))
	}
	first, last := res.Series[0].TestAcc, res.Series[len(res.Series)-1].TestAcc
	if last <= first {
		t.Fatalf("no learning: %.3f -> %.3f", first, last)
	}
	if res.FinalAccuracy < 0.3 {
		t.Fatalf("best accuracy %.3f too low", res.FinalAccuracy)
	}
}

func TestTrainDeterministic(t *testing.T) {
	cfg := Config{
		Model: nn.LeNet, Algo: AlgoSMA,
		GPUs: 1, LearnersPerGPU: 2, Batch: 8,
		Momentum: 0.9, MaxEpochs: 3, Seed: 7,
	}
	a := Train(cfg, Inputs{})
	b := Train(cfg, Inputs{})
	if len(a.Series) != len(b.Series) {
		t.Fatal("series lengths differ")
	}
	for i := range a.Series {
		if a.Series[i].TestAcc != b.Series[i].TestAcc || a.Series[i].Loss != b.Series[i].Loss {
			t.Fatalf("epoch %d differs: %+v vs %+v", i, a.Series[i], b.Series[i])
		}
	}
	if tensor.MaxAbsDiff(a.Model, b.Model) != 0 {
		t.Fatal("final models differ between identical runs")
	}
}

func TestTrainSeedsChangeOutcome(t *testing.T) {
	cfg := Config{
		Model: nn.LeNet, Algo: AlgoSMA,
		GPUs: 1, LearnersPerGPU: 1, Batch: 8,
		Momentum: 0.9, MaxEpochs: 2, Seed: 1,
	}
	a := Train(cfg, Inputs{})
	cfg.Seed = 2
	b := Train(cfg, Inputs{})
	if tensor.MaxAbsDiff(a.Model, b.Model) == 0 {
		t.Fatal("different seeds should change the trained model")
	}
}

func TestTrainAllAlgorithms(t *testing.T) {
	for _, algo := range []Algorithm{AlgoSMA, AlgoSMAHier, AlgoSSGD, AlgoEASGD} {
		algo := algo
		t.Run(string(algo), func(t *testing.T) {
			res := Train(Config{
				Model: nn.LeNet, Algo: algo,
				GPUs: 2, LearnersPerGPU: 2, Batch: 8,
				Momentum: 0.9, MaxEpochs: 4, Seed: 1,
			}, Inputs{})
			if res.K != 4 {
				t.Fatalf("K = %d, want 4", res.K)
			}
			if res.FinalAccuracy <= 0.12 {
				t.Fatalf("%s: accuracy %.3f barely above chance", algo, res.FinalAccuracy)
			}
		})
	}
}

func TestTrainTargetStopsEarly(t *testing.T) {
	res := Train(Config{
		Model: nn.LeNet, Algo: AlgoSSGD,
		GPUs: 1, LearnersPerGPU: 1, Batch: 16,
		Momentum: 0.9, MaxEpochs: 40, TargetAccuracy: 0.30, Seed: 1,
	}, Inputs{})
	if res.EpochsToTarget <= 0 {
		t.Fatal("target should be reached")
	}
	if len(res.Series) >= 40 {
		t.Fatalf("run did not stop early: %d epochs", len(res.Series))
	}
}

func TestTrainScheduleAndRestart(t *testing.T) {
	res := Train(Config{
		Model: nn.LeNet, Algo: AlgoSMA,
		GPUs: 1, LearnersPerGPU: 2, Batch: 8,
		Momentum: 0.9, MaxEpochs: 6, Seed: 1,
		Schedule: StepDecay(0.1, 3),
		Restart:  true,
	}, Inputs{})
	// The run must survive the mid-training restart and keep learning.
	if res.FinalAccuracy <= 0.12 {
		t.Fatalf("accuracy %.3f after schedule+restart", res.FinalAccuracy)
	}
}

func TestTrainEpochSecondsStampsTime(t *testing.T) {
	res := Train(Config{
		Model: nn.LeNet, Algo: AlgoSSGD,
		GPUs: 1, LearnersPerGPU: 1, Batch: 16,
		Momentum: 0.9, MaxEpochs: 3, Seed: 1,
	}, Inputs{EpochSeconds: 2.5})
	for i, p := range res.Series {
		want := 2.5 * float64(i+1)
		if p.TimeSec != want {
			t.Fatalf("epoch %d time %.2f, want %.2f", i+1, p.TimeSec, want)
		}
	}
}

func TestTrainSampleOverride(t *testing.T) {
	res := Train(Config{
		Model: nn.LeNet, Algo: AlgoSSGD,
		GPUs: 1, LearnersPerGPU: 1, Batch: 16,
		Momentum: 0.9, MaxEpochs: 1, Seed: 1,
		TrainSamples: 512, TestSamples: 128,
	}, Inputs{})
	if len(res.Series) != 1 {
		t.Fatal("expected one epoch")
	}
}

func TestDefaultLearnRates(t *testing.T) {
	if DefaultLearnRate(nn.LeNet) >= DefaultLearnRate(nn.ResNet32) {
		t.Fatal("LeNet should use a smaller rate than ResNet-32 (Figure 9)")
	}
	for _, id := range nn.AllModels {
		if DefaultLearnRate(id) <= 0 {
			t.Fatalf("%s: non-positive default learn rate", id)
		}
	}
}

func TestSchedules(t *testing.T) {
	s := StepDecay(0.1, 10, 20)
	if got := s(5, 1); got != 1 {
		t.Fatalf("epoch 5 lr = %v", got)
	}
	if got := s(10, 1); got != 0.1 {
		t.Fatalf("epoch 10 lr = %v", got)
	}
	if got := s(25, 1); got > 0.011 || got < 0.009 {
		t.Fatalf("epoch 25 lr = %v", got)
	}
	p := PeriodicDecay(0.5, 20)
	if got := p(19, 1); got != 1 {
		t.Fatalf("epoch 19 lr = %v", got)
	}
	if got := p(40, 1); got != 0.25 {
		t.Fatalf("epoch 40 lr = %v", got)
	}
}

func TestCentralModelPerAlgorithm(t *testing.T) {
	w0 := []float32{1, 2}
	for name, opt := range map[string]stepper{
		"SMA":              NewSMA(SMAConfig{LearnRate: 0.1}, w0, 1),
		"SSGD":             NewSSGD(0.1, 0, w0),
		"EASGD":            NewEASGD(0.1, 0, 1, 1, w0),
		"hierarchical SMA": NewHierarchicalSMA(SMAConfig{LearnRate: 0.1}, w0, [][]int{{0}}),
		"cluster SMA":      NewDistClusterSMA(ClusterSMAConfig{}, w0, 1, nopExchanger{}),
	} {
		if opt.Average() == nil {
			t.Fatalf("nil central model for %s", name)
		}
	}
}

func TestSSGDCarriesBatchNormState(t *testing.T) {
	// Regression test: batch-norm running statistics live in the model
	// vector but have zero gradient; S-SGD must carry them from replicas
	// into the global model or evaluation normalises with initial stats.
	res := Train(Config{
		Model: nn.ResNet50, Algo: AlgoSSGD,
		GPUs: 1, LearnersPerGPU: 1, Batch: 16,
		Momentum: 0.9, MaxEpochs: 4, Seed: 1,
	}, Inputs{})
	net := nn.BuildScaled(nn.ResNet50, 1, tensor.NewRNG(1))
	ranges := net.StateRanges()
	if len(ranges) == 0 {
		t.Fatal("ResNet-50 must expose batch-norm state ranges")
	}
	changed := false
	fresh := net.Init(tensor.NewRNG(1 + 13))
	for _, rg := range ranges {
		for i := rg[0]; i < rg[1]; i++ {
			if res.Model[i] != fresh[i] {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("running statistics never updated in the global model")
	}
}

// TestPoolFootprintFollowsConcurrency pins §4.5's memory-plane claim: the
// shared activation pool is sized by how many tasks can run at once, not by
// how many learners exist. By default it never grows past (kernel worker
// budget + 1) planned arenas, so with two workers four learners share fewer
// than four arenas; and an explicit MemoryBudget of a single arena still
// completes, allocates exactly that arena, and under the lockstep schedule
// returns the unbudgeted run's model bit for bit — a budget may only add
// waiting. (Under FCFS the waiting reorders batch binding, so the models
// legitimately differ there.)
func TestPoolFootprintFollowsConcurrency(t *testing.T) {
	defer tensor.SetWorkerBudget(tensor.WorkerBudget())
	for _, budget := range []int{1, 2} {
		tensor.SetWorkerBudget(budget)
		for _, sched := range []SchedulerMode{SchedLockstep, SchedFCFS} {
			for _, m := range []int{1, 2, 4} {
				cfg := Config{
					Model: nn.LeNet, Algo: AlgoSMA,
					GPUs: 1, LearnersPerGPU: m, Batch: 4,
					Momentum: 0.9, MaxEpochs: 1, Seed: 1,
					TrainSamples: 256, TestSamples: 64,
					Scheduler: sched,
				}
				free := Train(cfg, Inputs{})
				arena := free.Mem.ArenaBytesPerTask
				if arena <= 0 {
					t.Fatalf("budget=%d %s m=%d: no planned arena reported: %+v", budget, sched, m, free.Mem)
				}
				if got, limit := free.Mem.PoolAllocatedBytes, int64(budget+1)*arena; got < arena || got > limit {
					t.Errorf("budget=%d %s m=%d: pool allocated %d bytes, want between one arena (%d) and budget+1 arenas (%d)",
						budget, sched, m, got, arena, limit)
				}

				cfg.MemoryBudget = arena
				tight := Train(cfg, Inputs{})
				if got := tight.Mem.PoolAllocatedBytes; got != arena {
					t.Errorf("budget=%d %s m=%d: MemoryBudget of one arena allocated %d bytes, want exactly %d",
						budget, sched, m, got, arena)
				}
				t.Logf("budget=%d %s m=%d: %d arena(s) unbudgeted; one-arena budget waited %d times",
					budget, sched, m, free.Mem.PoolAllocatedBytes/arena, tight.Mem.PoolBudgetWaits)
				if sched == SchedLockstep {
					resultsBitIdentical(t, "one-arena budget", free, tight)
				}
			}
		}
	}
}

// TestTrainEnvSetupPanicReachesCaller drives the set-up sides with a model
// they cannot build. Train rejects an unknown model in FillDefaults, before
// any side starts, so this calls the constructor itself; the test after it
// runs a whole set-up, which a stray side panic would not survive.
func TestTrainEnvSetupPanicReachesCaller(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("newTrainEnv with an unknown model returned; want a panic")
		}
	}()
	cfg := Config{Model: "bogus", GPUs: 1, LearnersPerGPU: 1, Batch: 2, MaxEpochs: 1, Seed: 1}
	newTrainEnv(&cfg, &Inputs{}, 1)
}

// TestTrainSetupPanicReachesCaller checks that a panic in set-up work done
// off the caller's goroutine (dataset synthesis, the evaluation side) reaches
// the caller as a panic it can recover, and that nothing of the failed call
// goes on to kill the process. An unknown model fails on every set-up
// goroutine at once.
func TestTrainSetupPanicReachesCaller(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Train with an unknown model returned; want a panic")
			}
		}()
		Train(Config{Model: "bogus", MaxEpochs: 1, Seed: 1}, Inputs{})
	}()
	// A set-up call's worth of work after the recovered one: a side
	// goroutine of the failed call that panicked on its own would end the
	// test binary here.
	res := Train(Config{
		Model: nn.LeNet, GPUs: 1, LearnersPerGPU: 2, Batch: 2,
		MaxEpochs: 1, TrainSamples: 4, TestSamples: 16, Seed: 1,
	}, Inputs{})
	if len(res.Series) != 1 {
		t.Fatalf("series has %d epochs, want 1", len(res.Series))
	}
}

// TestSideWorkPanicRaisedAtJoin checks the mechanism under both set-up
// sides: a panic on the side goroutine is raised again, value intact, on
// the goroutine that joins it.
func TestSideWorkPanicRaisedAtJoin(t *testing.T) {
	w := goSide(func() { panic("side") })
	defer func() {
		if r := recover(); r != "side" {
			t.Fatalf("join raised %v, want the side's panic", r)
		}
	}()
	w.join()
	t.Fatal("join returned after the side panicked")
}
