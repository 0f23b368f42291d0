package core

import (
	"math"
	"testing"

	"crossbow/internal/nn"
	"crossbow/internal/tensor"
)

// benchTrain runs one statistical-plane training epoch per iteration — the
// quantity the paper's TTA sweeps and `go test -bench=.` replays bottom out
// in. Keeping it as a benchmark lets kernel PRs demonstrate wall-clock wins
// on the real training path rather than on isolated kernels.
func benchTrain(b *testing.B, cfg TrainConfig) {
	b.Helper()
	cfg.MaxEpochs = 1
	cfg.Seed = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Train(cfg)
	}
}

// BenchmarkEpochResNet32 is the headline statistical-plane number: one
// ResNet-32 epoch with a single learner (128 iterations at b=16 over the
// default 2048-sample synthetic training set).
func BenchmarkEpochResNet32(b *testing.B) {
	benchTrain(b, TrainConfig{Model: nn.ResNet32, Algo: AlgoSMA, Momentum: 0.9})
}

// BenchmarkEpochResNet32_K4 exercises the multi-learner path (4 replicas on
// one simulated GPU), where learner goroutines and the kernel worker pool
// share the machine.
func BenchmarkEpochResNet32_K4(b *testing.B) {
	benchTrain(b, TrainConfig{
		Model: nn.ResNet32, Algo: AlgoSMA, Momentum: 0.9,
		GPUs: 1, LearnersPerGPU: 4,
	})
}

// BenchmarkEpochLeNet covers the conv+pool+dense mix.
func BenchmarkEpochLeNet(b *testing.B) {
	benchTrain(b, TrainConfig{Model: nn.LeNet, Algo: AlgoSMA, Momentum: 0.9})
}

// The optimiser benchmarks below time one call on the benchmark's two
// model sizes with the networks' real state ranges. SetBytes is the memory
// a call moves at model size (block scratch stays in L1 and is not
// counted), so MB/s compares directly with a streaming copy.

func benchModel(id nn.ModelID) (w0 []float32, state [][2]int) {
	net := nn.BuildScaled(id, 4, tensor.NewRNG(1))
	return net.Init(tensor.NewRNG(14)), net.StateRanges()
}

// benchReplicas returns k replicas near w0 and k gradient vectors. A
// constant gradient keeps every value normal for any b.N: velocities
// converge to −γg/(1−µ) and weights drift linearly.
func benchReplicas(w0 []float32, k int) (ws, gs [][]float32) {
	r := tensor.NewRNG(5)
	ws, gs = make([][]float32, k), make([][]float32, k)
	for j := range ws {
		ws[j], gs[j] = make([]float32, len(w0)), make([]float32, len(w0))
		for i := range w0 {
			ws[j][i] = w0[i] + float32(r.NormFloat64())*0.01
			gs[j][i] = float32(r.NormFloat64()) * 0.01
		}
	}
	return ws, gs
}

func benchSMAConfig(state [][2]int) SMAConfig {
	return SMAConfig{LearnRate: 0.01, Momentum: 0.9, LocalMomentum: 0.9, StateRanges: state}
}

func withBudget(b *testing.B, budget int) {
	prev := tensor.WorkerBudget()
	tensor.SetWorkerBudget(budget)
	b.Cleanup(func() { tensor.SetWorkerBudget(prev) })
}

// BenchmarkSMAStep is the lockstep optimiser step of train-resnet32:
// ResNet-32, two learners, at kernel budget 1 and 2. The denormal row is
// the benchmark README's finding 3: a third of the velocities start on the
// smallest subnormal with a zero gradient (a dead unit's parameters: µ·v
// rounds back to v, so they never decayed to zero) and every operation
// touching them took the microcode path — 485 µs a step against 37 healthy.
// The velocity snap (tensor/elem_sma.go) stores them as +0 in the first
// step, so the row now reads what the healthy one does: 44 µs beside
// budget=1's 40 (medians of five interleaved runs of the two binaries).
func BenchmarkSMAStep(b *testing.B) {
	w0, state := benchModel(nn.ResNet32)
	const k = 2
	run := func(budget int, denormal bool) func(*testing.B) {
		return func(b *testing.B) {
			withBudget(b, budget)
			s := NewSMA(benchSMAConfig(state), w0, k)
			ws, gs := benchReplicas(w0, k)
			if denormal {
				for j := range gs {
					for i := 0; i < len(w0); i += 3 {
						gs[j][i], s.vel[j][i] = 0, math.SmallestNonzeroFloat32
					}
				}
			}
			b.SetBytes(int64(4 * len(w0) * (5*k + 4)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step(ws, gs)
			}
		}
	}
	b.Run("budget=1", run(1, false))
	b.Run("budget=2", run(2, false))
	b.Run("budget=1/denormal-third", run(1, true))
}

// BenchmarkSMAContribute is one learner's fused correction+step of
// train-lenet-fcfs (LeNet, four learners).
func BenchmarkSMAContribute(b *testing.B) {
	w0, state := benchModel(nn.LeNet)
	withBudget(b, 1)
	s := NewSMA(benchSMAConfig(state), w0, 4)
	ws, gs := benchReplicas(w0, 4)
	out := make([]float32, len(w0))
	b.SetBytes(int64(4 * len(w0) * 7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ContributeStep(0, ws[0], gs[0], out)
	}
}

// BenchmarkSMAApply is the round-closing fold of four learners'
// corrections on the same model.
func BenchmarkSMAApply(b *testing.B) {
	w0, state := benchModel(nn.LeNet)
	withBudget(b, 1)
	const k = 4
	s := NewSMA(benchSMAConfig(state), w0, k)
	ws, gs := benchReplicas(w0, k)
	corr := make([][]float32, k)
	for j := range corr {
		corr[j] = make([]float32, len(w0))
		s.ContributeStep(j, ws[j], gs[j], corr[j])
	}
	b.SetBytes(int64(4 * len(w0) * (k + 4)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ApplyContributions(corr)
	}
}

// BenchmarkDistApply is the global fold of cluster-tcp-resnet32: one
// server's reference model against a two-server sum.
func BenchmarkDistApply(b *testing.B) {
	w0, state := benchModel(nn.ResNet32)
	withBudget(b, 1)
	d := NewDistClusterSMA(ClusterSMAConfig{SMAConfig: benchSMAConfig(state)}, w0, 1, nopExchanger{})
	for i := range d.buf {
		d.buf[i] = 2 * w0[i]
	}
	b.SetBytes(int64(4 * len(w0) * 7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.apply(ExchangeRound{Participants: 2})
	}
}

type nopExchanger struct{}

func (nopExchanger) AllReduce([]float32) (ExchangeRound, error) { return ExchangeRound{}, nil }
