package gpusim

import (
	"math"
	"testing"

	"crossbow/internal/nn"
)

func TestSingleKernelDuration(t *testing.T) {
	s := NewSim(1, 24)
	st := s.Device(0).NewStream("s0")
	st.Kernel("k", 4, 100)
	end := s.Run()
	if end != 100 {
		t.Fatalf("end = %v, want 100", end)
	}
}

func TestStreamSerialisesOps(t *testing.T) {
	s := NewSim(1, 24)
	st := s.Device(0).NewStream("s0")
	st.Kernel("a", 1, 50)
	st.Kernel("b", 1, 70)
	if end := s.Run(); end != 120 {
		t.Fatalf("end = %v, want 120 (in-order execution)", end)
	}
}

func TestStreamsOverlapWhenSMsAllow(t *testing.T) {
	s := NewSim(1, 24)
	a := s.Device(0).NewStream("a")
	b := s.Device(0).NewStream("b")
	a.Kernel("ka", 8, 100)
	b.Kernel("kb", 8, 100)
	if end := s.Run(); end != 100 {
		t.Fatalf("end = %v, want 100 (concurrent execution)", end)
	}
}

func TestStreamsSerialiseWhenSMsExhausted(t *testing.T) {
	s := NewSim(1, 24)
	a := s.Device(0).NewStream("a")
	b := s.Device(0).NewStream("b")
	a.Kernel("ka", 24, 100) // fills the device
	b.Kernel("kb", 24, 100)
	if end := s.Run(); end != 200 {
		t.Fatalf("end = %v, want 200 (SM contention serialises)", end)
	}
}

func TestPartialOverlapWithMixedDemand(t *testing.T) {
	s := NewSim(1, 24)
	a := s.Device(0).NewStream("a")
	b := s.Device(0).NewStream("b")
	c := s.Device(0).NewStream("c")
	a.Kernel("ka", 12, 100)
	b.Kernel("kb", 12, 100)
	c.Kernel("kc", 12, 100) // must wait for a slot
	if end := s.Run(); end != 200 {
		t.Fatalf("end = %v, want 200", end)
	}
}

func TestEventOrdersAcrossStreams(t *testing.T) {
	s := NewSim(1, 24)
	a := s.Device(0).NewStream("a")
	b := s.Device(0).NewStream("b")
	ev := s.NewEvent()
	a.Kernel("producer", 1, 80)
	a.Record(ev)
	b.Wait(ev)
	b.Kernel("consumer", 1, 20)
	if end := s.Run(); end != 100 {
		t.Fatalf("end = %v, want 100 (b waits for a)", end)
	}
	if !ev.fired {
		t.Fatal("event not fired")
	}
}

func TestEventAlreadyFiredDoesNotBlock(t *testing.T) {
	s := NewSim(1, 24)
	a := s.Device(0).NewStream("a")
	ev := s.NewEvent()
	a.Record(ev)
	s.Run()
	b := s.Device(0).NewStream("b")
	b.Wait(ev)
	b.Kernel("k", 1, 10)
	if end := s.Run(); end != 10 {
		t.Fatalf("end = %v, want 10", end)
	}
}

func TestCallbackSeesVirtualTime(t *testing.T) {
	s := NewSim(1, 24)
	st := s.Device(0).NewStream("s")
	st.Kernel("k", 1, 42)
	var at float64 = -1
	st.OnComplete(func(now float64) { at = now })
	s.Run()
	if at != 42 {
		t.Fatalf("callback at %v, want 42", at)
	}
}

func TestCallbackCanEnqueueMoreWork(t *testing.T) {
	s := NewSim(1, 24)
	st := s.Device(0).NewStream("s")
	st.Kernel("k1", 1, 10)
	st.OnComplete(func(now float64) {
		st.Kernel("k2", 1, 15)
	})
	if end := s.Run(); end != 25 {
		t.Fatalf("end = %v, want 25", end)
	}
}

func TestMultiDeviceIndependence(t *testing.T) {
	s := NewSim(2, 24)
	a := s.Device(0).NewStream("a")
	b := s.Device(1).NewStream("b")
	a.Kernel("ka", 24, 100)
	b.Kernel("kb", 24, 100)
	if end := s.Run(); end != 100 {
		t.Fatalf("end = %v, want 100 (devices are independent)", end)
	}
}

func TestUtilisationAccounting(t *testing.T) {
	s := NewSim(1, 24)
	st := s.Device(0).NewStream("s")
	st.Kernel("k", 12, 100)
	s.Run()
	d := s.Device(0)
	if u := d.Busy / (float64(d.SMs) * s.Now()); math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("utilisation = %v, want 0.5", u)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() float64 {
		s := NewSim(2, 24)
		ev := s.NewEvent()
		a := s.Device(0).NewStream("a")
		b := s.Device(0).NewStream("b")
		c := s.Device(1).NewStream("c")
		a.Kernel("ka", 10, 33)
		a.Record(ev)
		b.Kernel("kb", 20, 21)
		c.Wait(ev)
		c.Kernel("kc", 24, 11)
		return s.Run()
	}
	if run() != run() {
		t.Fatal("simulation must be deterministic")
	}
}

func TestKernelCostScalesWithBatch(t *testing.T) {
	c := DefaultCostModel()
	op := nn.OpSpec{Kind: "conv", FLOPs: 1e6, OutElems: 16384}
	smsSmall, durSmall := c.KernelCost(op, 2, 1)
	smsBig, durBig := c.KernelCost(op, 64, 1)
	if smsSmall >= smsBig {
		t.Fatalf("small batch should need fewer SMs: %d vs %d", smsSmall, smsBig)
	}
	if durBig <= durSmall {
		t.Fatal("larger batch must take longer")
	}
	if smsBig != c.SMsPerDevice {
		t.Fatalf("big batch should fill the device: %d SMs", smsBig)
	}
}

func TestSmallBatchKernelLeavesRoomForConcurrency(t *testing.T) {
	// The core §3.3 premise: at batch 2-4, kernels need only a few SMs,
	// so several learners fit on one device.
	c := DefaultCostModel()
	spec := nn.FullSpec(nn.ResNet32)
	var maxSMs int
	for _, op := range spec.Ops {
		sms, _ := c.KernelCost(op, 4, 1)
		if sms > maxSMs {
			maxSMs = sms
		}
	}
	if maxSMs > c.SMsPerDevice/2 {
		t.Fatalf("batch-4 ResNet-32 kernels use up to %d of %d SMs; expected ≤ half",
			maxSMs, c.SMsPerDevice)
	}
}

func TestPlanLearningTaskShape(t *testing.T) {
	c := DefaultCostModel()
	spec := nn.FullSpec(nn.ResNet32)
	plan := c.PlanLearningTask(spec, 32)
	if len(plan.Kernels) != 2*len(spec.Ops) {
		t.Fatalf("plan has %d kernels, want %d", len(plan.Kernels), 2*len(spec.Ops))
	}
	if plan.TotalUS <= 0 {
		t.Fatal("plan must have positive duration")
	}
	// Backward costs about twice the forward.
	var fwd, bwd float64
	for i, k := range plan.Kernels {
		if i < len(spec.Ops) {
			fwd += k.DurUS
		} else {
			bwd += k.DurUS
		}
	}
	if bwd < fwd {
		t.Fatalf("backward (%v) should cost more than forward (%v)", bwd, fwd)
	}
}

func TestResNet50TaskNearPaperScale(t *testing.T) {
	// §5.2: a ResNet-50 learning task takes ~220 ms at batch 32 on one
	// Titan X. The calibration should land within a small factor.
	c := DefaultCostModel()
	plan := c.PlanLearningTask(nn.FullSpec(nn.ResNet50), 32)
	ms := plan.TotalUS / 1000
	if ms < 70 || ms > 700 {
		t.Fatalf("ResNet-50 b=32 learning task = %.1f ms, want the ~220 ms scale", ms)
	}
}

func TestLeNetTaskNearPaperScale(t *testing.T) {
	// §5.2: a LeNet learning task takes ~1 ms or less.
	c := DefaultCostModel()
	plan := c.PlanLearningTask(nn.FullSpec(nn.LeNet), 4)
	ms := plan.TotalUS / 1000
	if ms > 3 {
		t.Fatalf("LeNet learning task = %.2f ms, want ~1 ms or less", ms)
	}
}

func TestAllReduceScaling(t *testing.T) {
	top := DefaultTopology(8)
	bytes := int64(1_790_000) // ResNet-32 model
	t2 := top.AllReduceUS(bytes, 2, 10)
	t4 := top.AllReduceUS(bytes, 4, 10)
	t8 := top.AllReduceUS(bytes, 8, 10)
	if !(t2 < t4 && t4 < t8) {
		t.Fatalf("all-reduce should cost more with more GPUs: %v %v %v", t2, t4, t8)
	}
	if top.AllReduceUS(bytes, 1, 10) != 0 {
		t.Fatal("single-GPU all-reduce must be free")
	}
	// Ring all-reduce volume is 2(k-1)/k·n: cost grows sub-linearly in k
	// for fixed n on a uniform link, so t8 < 4× t2 even with the slower
	// cross-socket links.
	if t8 > 4*t2 {
		t.Fatalf("t8 = %v too large relative to t2 = %v", t8, t2)
	}
}

func TestTransferCost(t *testing.T) {
	c := DefaultCostModel()
	small := c.TransferUS(1024)
	big := c.TransferUS(12_000_000)
	if small >= big {
		t.Fatal("bigger transfers must take longer")
	}
	// 12 MB at 12 GB/s ≈ 1000 µs + latency.
	if math.Abs(big-(10+1000)) > 1 {
		t.Fatalf("12 MB transfer = %v µs, want ~1010", big)
	}
}
