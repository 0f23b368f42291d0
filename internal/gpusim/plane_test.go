package gpusim_test

import (
	"math"
	"testing"

	"crossbow/internal/autotune"
	"crossbow/internal/engine"
	"crossbow/internal/gpusim"
	"crossbow/internal/nn"
)

// planeIters is the iteration count every hardware-plane measurement of a
// Train call runs.
const planeIters = 30

// planeBits is one configuration's simulated numbers, bit for bit: the
// throughput of planeIters iterations, the epoch seconds of the next
// planeIters on the same simulator, and every device's Busy after both.
type planeBits struct {
	tp, epoch uint64
	busy      []uint64
}

type throughputer interface {
	Throughput(n int) float64
	EpochSeconds(nSamples, measureIters int) float64
	Sim() *gpusim.Sim
}

func measurePlane(e throughputer, model nn.ModelID) planeBits {
	var b planeBits
	b.tp = math.Float64bits(e.Throughput(planeIters))
	b.epoch = math.Float64bits(e.EpochSeconds(nn.FullSpec(model).TrainSamples, planeIters))
	s := e.Sim()
	for i := 0; i < s.NumDevices(); i++ {
		b.busy = append(b.busy, math.Float64bits(s.Device(i).Busy))
	}
	return b
}

// goldenPlanes pins every simulated number of the hardware plane: the
// configurations Train, the figures and the auto-tuner measure, plus the
// wiring variants (no synchronisation, no overlap, the S-SGD baseline,
// servers sharing one clock). A changed constant is a changed schedule —
// a kernel that started at another instant or with another SM grant.
var goldenPlanes = []struct {
	name  string
	model nn.ModelID
	build func() throughputer
	want  planeBits
}{
	{"resnet32_1x2", nn.ResNet32, func() throughputer {
		return engine.New(engine.Config{Model: nn.ResNet32, GPUs: 1, LearnersPerGPU: 2, Batch: 4, Tau: 1, Overlap: true})
	}, planeBits{0x407fbc7e3a63b829, 0x40589dee800a0590, []uint64{0x4147bddd61a9f808}}},
	{"resnet32_8x4", nn.ResNet32, func() throughputer {
		return engine.New(engine.Config{Model: nn.ResNet32, GPUs: 8, LearnersPerGPU: 4, Batch: 4, Tau: 1, Overlap: true})
	}, planeBits{0x40bfb28935303a26, 0x4018a5aa20773f96, rep(0x4157dd07351eb16e, 8)}},
	{"lenet_1x4", nn.LeNet, func() throughputer {
		return engine.New(engine.Config{Model: nn.LeNet, GPUs: 1, LearnersPerGPU: 4, Batch: 2, Tau: 1, Overlap: true})
	}, planeBits{0x40b8c6c7590856a4, 0x4022eb4d9a87d613, []uint64{0x411fe59f6353f70a}}},
	{"ssgd_8", nn.ResNet32, func() throughputer {
		return engine.NewSSGD(nn.ResNet32, 8, 8*64)
	}, planeBits{0x40db507e8637bed9, 0x3ffc9a230b45671f, rep(0x417462e276d902a9, 8)}},
	{"cluster_2x2x2", nn.ResNet32, func() throughputer {
		return engine.New(engine.Config{Model: nn.ResNet32, Servers: 2, GPUs: 2, LearnersPerGPU: 2, Batch: 4, Tau: 1, TauGlobal: 2, Overlap: true})
	}, planeBits{0x409f983042dd774c, 0x4038ba37eabbcb9e, []uint64{0x414844d3bae974c8, 0x4147d29766c8b04b, 0x414844d3bae974c8, 0x4147d29766c8b04b}}},
	{"tau_never_2x2", nn.ResNet32, func() throughputer {
		return engine.New(engine.Config{Model: nn.ResNet32, GPUs: 2, LearnersPerGPU: 2, Batch: 4, Tau: engine.TauNever, Overlap: true})
	}, planeBits{0x409340f0a3bab46e, 0x404449d082a29691, rep(0x41452ffc6e147857, 2)}},
	{"no_overlap_2x3_tau2", nn.ResNet32, func() throughputer {
		return engine.New(engine.Config{Model: nn.ResNet32, GPUs: 2, LearnersPerGPU: 3, Batch: 16, Tau: 2, Overlap: false})
	}, planeBits{0x40b5abe00a1ba3f9, 0x40220661169b723d, rep(0x417100b5d6786687, 2)}},
	{"lenet_1x1", nn.LeNet, func() throughputer {
		return engine.New(engine.Config{Model: nn.LeNet, GPUs: 1, LearnersPerGPU: 1, Batch: 16, Tau: 1, Overlap: true})
	}, planeBits{0x40b9a7701718fcd3, 0x4022459f8d658f0b, []uint64{0x412b78ed7a5ff4d2}}},
	{"resnet32_2x2_b16", nn.ResNet32, func() throughputer {
		return engine.New(engine.Config{Model: nn.ResNet32, GPUs: 2, LearnersPerGPU: 2, Batch: 16, Tau: 1, Overlap: true})
	}, planeBits{0x40af998df555d575, 0x4028b92645d440db, rep(0x4165d5f8260b7b1f, 2)}},
	{"resnet32_4x2_tau4", nn.ResNet32, func() throughputer {
		return engine.New(engine.Config{Model: nn.ResNet32, GPUs: 4, LearnersPerGPU: 2, Batch: 16, Tau: 4, Overlap: true})
	}, planeBits{0x40c23cc4173272e3, 0x4015954247333c03, rep(0x416558d33658c4dd, 4)}},
	{"vgg16_2x1", nn.VGG16, func() throughputer {
		return engine.New(engine.Config{Model: nn.VGG16, GPUs: 2, LearnersPerGPU: 1, Batch: 16, Tau: 1, Overlap: true})
	}, planeBits{0x40860911dc4c3f77, 0x4051ba257524976f, rep(0x41763db97d650fc5, 2)}},
	{"cluster_ib_2x2x2_tau2", nn.ResNet32, func() throughputer {
		return engine.New(engine.Config{Model: nn.ResNet32, Servers: 2, GPUs: 2, LearnersPerGPU: 2, Batch: 16, Tau: 2, Overlap: true, Net: gpusim.InfiniBandEDR()})
	}, planeBits{0x40c147040f91119d, 0x40169be7eee47ea7, []uint64{0x416588ee50f1331a, 0x416581c391d821d6, 0x416588ee50f1331a, 0x416581c391d821d6}}},
}

func TestGoldenHardwarePlane(t *testing.T) {
	for _, c := range goldenPlanes {
		got := measurePlane(c.build(), c.model)
		if got.tp != c.want.tp || got.epoch != c.want.epoch || !equalBits(got.busy, c.want.busy) {
			t.Errorf("%s: got throughput %#x, epoch %#x, busy %#v; want %#x, %#x, %#v",
				c.name, got.tp, got.epoch, got.busy, c.want.tp, c.want.epoch, c.want.busy)
		}
	}
}

func rep(v uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func equalBits(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestGoldenAutotune pins Algorithm 2's walk over the paper's 8-GPU server,
// alone and as each of two servers on the default interconnect: every
// decision's throughput bits and the chosen learner count.
func TestGoldenAutotune(t *testing.T) {
	type step struct {
		m  int
		tp uint64
	}
	for _, c := range []struct {
		name       string
		cfg        engine.Config
		want       []step
		wantChosen int
	}{
		{"1x8", engine.Config{Model: nn.ResNet32, GPUs: 8, Batch: 16, Overlap: true}, []step{
			{1, 0x40bfaccfe4ff1701}, {2, 0x40cf7be7e7a50f08}, {3, 0x40d5e3a703ae51b6},
			{4, 0x40da0340ab0ba926}, {5, 0x40db3f2dc071b23c},
		}, 4},
		{"2x8", engine.Config{Model: nn.ResNet32, Servers: 2, GPUs: 8, Batch: 16, Overlap: true}, []step{
			{1, 0x40cf7b2b9abfa6c5}, {2, 0x40df4a95a91ec642}, {3, 0x40e5c3114c0e9b6e},
			{4, 0x40ea0295faf30da6}, {5, 0x40ea5c0f87036267},
		}, 4},
	} {
		r := autotune.Tune(c.cfg)
		var got []step
		for _, d := range r.History {
			got = append(got, step{d.M, math.Float64bits(d.Throughput)})
		}
		if r.Chosen != c.wantChosen || len(got) != len(c.want) {
			t.Errorf("%s: chosen %d, history %#v; want %d, %#v", c.name, r.Chosen, got, c.wantChosen, c.want)
			continue
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%s: chosen %d, history %#v; want %d, %#v", c.name, r.Chosen, got, c.wantChosen, c.want)
				break
			}
		}
	}
}

// TestHardwarePlaneAllocs bounds what the hardware plane every Train call
// runs allocates: building the single-server engine and simulating
// planeIters iterations at train-resnet32's shape (one GPU, two learners,
// batch 4) — crossbow.Throughput's path — and how that grows per
// iteration. A kernel allocates nothing, so a longer run adds at most a
// few allocations a GPU per iteration (events and their slices, amortised).
func TestHardwarePlaneAllocs(t *testing.T) {
	cfg := engine.Config{Model: nn.ResNet32, GPUs: 1, LearnersPerGPU: 2, Batch: 4, Tau: 1, Overlap: true}
	run := func(iters int) float64 {
		return testing.AllocsPerRun(5, func() { engine.New(cfg).Throughput(iters) })
	}
	a30, a60 := run(planeIters), run(2*planeIters)
	t.Logf("allocations per call: %.0f at %d iterations, %.0f at %d", a30, planeIters, a60, 2*planeIters)
	if a30 > 1000 {
		t.Errorf("%.0f allocations per %d-iteration call, want at most 1000", a30, planeIters)
	}
	if perIter := (a60 - a30) / planeIters; perIter > 2*float64(cfg.GPUs) {
		t.Errorf("%.1f allocations per extra iteration, want at most %d (two a GPU)", perIter, 2*cfg.GPUs)
	}
}

// BenchmarkHardwarePlane times the hardware plane of one Train call —
// engine.New and planeIters simulated iterations — at train-resnet32's
// shape and on the paper's 8-GPU server with 4 learners a GPU, in host
// nanoseconds per simulated kernel.
func BenchmarkHardwarePlane(b *testing.B) {
	for _, c := range []struct {
		name      string
		gpus, per int
	}{{"1x2", 1, 2}, {"8x4", 8, 4}} {
		b.Run(c.name, func(b *testing.B) {
			cfg := engine.Config{Model: nn.ResNet32, GPUs: c.gpus, LearnersPerGPU: c.per, Batch: 4, Tau: 1, Overlap: true}
			b.ReportAllocs()
			var kernels uint64
			for i := 0; i < b.N; i++ {
				e := engine.New(cfg)
				e.Throughput(planeIters)
				kernels += gpusim.KernelsStarted(e.Sim())
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(kernels), "ns/kernel")
		})
	}
}
