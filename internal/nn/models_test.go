package nn

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"crossbow/internal/tensor"
)

func TestBuildScaledAllModels(t *testing.T) {
	for _, id := range AllModels {
		id := id
		t.Run(string(id), func(t *testing.T) {
			r := tensor.NewRNG(1)
			net := BuildScaled(id, 4, r)
			if net.ParamSize() == 0 {
				t.Fatal("no parameters")
			}
			w := net.Init(r)
			g := make([]float32, net.ParamSize())
			net.Bind(w, g)
			cfg := ScaledConfigs[id]
			x := tensor.New(append([]int{4}, cfg.Input...)...)
			for i := range x.Data() {
				x.Data()[i] = float32(r.NormFloat64())
			}
			labels := []int{0, 1, 0, 1}
			loss := net.LossAndGrad(x, labels)
			if loss <= 0 || loss > 50 {
				t.Fatalf("initial loss %v out of range", loss)
			}
			var nz int
			for _, v := range g {
				if v != 0 {
					nz++
				}
			}
			if nz == 0 {
				t.Fatal("no gradient produced")
			}
		})
	}
}

func TestBuildScaledUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BuildScaled(ModelID("nope"), 1, tensor.NewRNG(1))
}

func TestInitDeterministic(t *testing.T) {
	n1 := BuildScaled(ResNet32, 2, tensor.NewRNG(5))
	n2 := BuildScaled(ResNet32, 2, tensor.NewRNG(5))
	w1 := n1.Init(tensor.NewRNG(9))
	w2 := n2.Init(tensor.NewRNG(9))
	if tensor.MaxAbsDiff(w1, w2) != 0 {
		t.Fatal("same seed must give identical initial models")
	}
}

// TestTrainingReducesLoss trains the scaled LeNet on a separable toy batch
// with plain SGD and asserts the loss falls — the end-to-end smoke test
// that forward, backward and the contiguous parameter store compose.
func TestTrainingReducesLoss(t *testing.T) {
	r := tensor.NewRNG(3)
	batch := 8
	net := BuildScaled(LeNet, batch, r)
	w := net.Init(r)
	g := make([]float32, net.ParamSize())
	net.Bind(w, g)

	cfg := ScaledConfigs[LeNet]
	x := tensor.New(append([]int{batch}, cfg.Input...)...)
	labels := make([]int, batch)
	for i := 0; i < batch; i++ {
		labels[i] = i % 2
		base := float32(labels[i]) * 2
		vol := tensor.Volume(cfg.Input)
		for j := 0; j < vol; j++ {
			x.Data()[i*vol+j] = base + float32(r.NormFloat64())*0.1
		}
	}

	first := net.LossAndGrad(x, labels)
	loss := first
	for it := 0; it < 60; it++ {
		tensor.ZeroSlice(g)
		loss = net.LossAndGrad(x, labels)
		tensor.Axpy(-0.05, g, w)
	}
	if loss >= first*0.5 {
		t.Fatalf("loss did not drop: first %v, last %v", first, loss)
	}
}

func TestFullSpecTable1Shape(t *testing.T) {
	// The full-scale specs must reproduce the magnitude ordering of the
	// paper's Table 1: ResNet-32 is the smallest model, ResNet-50 the
	// largest; ResNet-50 has the most operators; LeNet the fewest.
	sizes := map[ModelID]float64{}
	ops := map[ModelID]int{}
	for _, id := range AllModels {
		s := FullSpec(id)
		sizes[id] = s.ModelMB()
		ops[id] = s.NumOps()
	}
	if !(sizes[ResNet32] < sizes[LeNet] && sizes[LeNet] < sizes[VGG16] && sizes[VGG16] < sizes[ResNet50]) {
		t.Fatalf("model size ordering broken: %v", sizes)
	}
	if !(ops[LeNet] < ops[VGG16] && ops[VGG16] < ops[ResNet32] && ops[ResNet32] < ops[ResNet50]) {
		t.Fatalf("operator count ordering broken: %v", ops)
	}
	// Magnitudes within a factor ~2 of Table 1.
	checks := []struct {
		id    ModelID
		paper float64
	}{
		{LeNet, 4.24}, {ResNet32, 1.79}, {VGG16, 57.37}, {ResNet50, 97.49},
	}
	for _, c := range checks {
		got := sizes[c.id]
		if got < c.paper/2.5 || got > c.paper*2.5 {
			t.Errorf("%s model size %.2f MB too far from paper's %.2f MB", c.id, got, c.paper)
		}
	}
}

func TestFullSpecResNet50Scale(t *testing.T) {
	s := FullSpec(ResNet50)
	p := s.ParamCount()
	if p < 23e6 || p > 28e6 {
		t.Fatalf("ResNet-50 params = %d, want ~25.5M", p)
	}
	f := s.ForwardFLOPs()
	// ~4 GMACs = ~8 GFLOPs counting multiply and add separately.
	if f < 6e9 || f > 10e9 {
		t.Fatalf("ResNet-50 forward FLOPs = %d, want ~8 GFLOPs", f)
	}
	// Paper §4.5: ResNet-50 output buffers dominate the model by ~2 orders
	// of magnitude at batch 32 (7.5 GB vs 97.5 MB → 234 MB vs ~100 MB per
	// sample).
	if s.ActivationBytes() < s.ParamCount() {
		t.Fatal("activations should outweigh parameters per sample")
	}
}

func TestFullSpecInputMB(t *testing.T) {
	if mb := FullSpec(ResNet32).InputMB(); mb < 400 || mb > 900 {
		t.Fatalf("CIFAR-10 input MB = %v, want ~614 (paper reports 703)", mb)
	}
	if mb := FullSpec(ResNet50).InputMB(); mb < 500e3 {
		t.Fatalf("ILSVRC input MB = %v, want ~1TB scale", mb)
	}
}

// TestFullSpecPins pins every full-scale operator list bit for bit: the op
// count, the parameter total and a CRC-32 over each op's kind, parameters,
// FLOPs and output size. The hardware plane costs these lists, and VGG-16
// and ResNet-50 appear in no golden hardware-plane case, so this is their
// only guard.
func TestFullSpecPins(t *testing.T) {
	want := []struct {
		id     ModelID
		ops    int
		params int64
		crc    uint32
	}{
		{LeNet, 10, 996206, 0x5ce8543c},
		{ResNet32, 115, 470602, 0xeb39a487},
		{VGG16, 49, 15045540, 0xac860068},
		{ResNet50, 175, 25636712, 0xc9c25efb},
	}
	for _, w := range want {
		s := FullSpec(w.id)
		h := crc32.NewIEEE()
		var b [8]byte
		for _, op := range s.Ops {
			h.Write([]byte(op.Kind))
			for _, v := range []int64{op.Params, op.FLOPs, op.OutElems} {
				binary.LittleEndian.PutUint64(b[:], uint64(v))
				h.Write(b[:])
			}
		}
		if len(s.Ops) != w.ops || s.ParamCount() != w.params || h.Sum32() != w.crc {
			t.Errorf("%s: %d ops, %d params, crc %#08x; want %d, %d, %#08x",
				w.id, len(s.Ops), s.ParamCount(), h.Sum32(), w.ops, w.params, w.crc)
		}
	}
}
