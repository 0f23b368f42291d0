package engine

import (
	"testing"

	"crossbow/internal/gpusim"
	"crossbow/internal/nn"
)

func TestEngineRunsIterations(t *testing.T) {
	e := New(Config{Model: nn.ResNet32, GPUs: 2, LearnersPerGPU: 2, Batch: 16, Overlap: true})
	us := e.RunIterations(5)
	if us <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	if e.K() != 4 {
		t.Fatalf("K = %d", e.K())
	}
}

func TestEngineDeterministic(t *testing.T) {
	run := func() float64 {
		e := New(Config{Model: nn.ResNet32, GPUs: 4, LearnersPerGPU: 2, Batch: 16, Overlap: true})
		return e.RunIterations(10)
	}
	if run() != run() {
		t.Fatal("engine must be deterministic")
	}
}

func TestOverlapBeatsBarrier(t *testing.T) {
	// Figure 8/§4.2: overlapping global sync with the next iteration's
	// learning tasks must not be slower than a global barrier.
	base := Config{Model: nn.ResNet32, GPUs: 4, LearnersPerGPU: 2, Batch: 16}
	withOverlap := base
	withOverlap.Overlap = true
	noOverlap := base
	noOverlap.Overlap = false
	tOn := New(withOverlap).RunIterations(20)
	tOff := New(noOverlap).RunIterations(20)
	if tOn > tOff {
		t.Fatalf("overlap (%v µs) slower than barrier (%v µs)", tOn, tOff)
	}
}

func TestMoreLearnersRaiseThroughputAtSmallBatch(t *testing.T) {
	// §3.3/Figure 12a: at small batch, one learner under-utilises a GPU;
	// adding learners raises throughput.
	t1 := New(Config{Model: nn.ResNet32, GPUs: 1, LearnersPerGPU: 1, Batch: 4, Overlap: true}).Throughput(30)
	t4 := New(Config{Model: nn.ResNet32, GPUs: 1, LearnersPerGPU: 4, Batch: 4, Overlap: true}).Throughput(30)
	if t4 <= t1*1.2 {
		t.Fatalf("m=4 throughput %v not clearly above m=1 %v", t4, t1)
	}
}

func TestLearnerThroughputSaturates(t *testing.T) {
	// Figure 14: throughput gains flatten (or reverse) once the GPU is
	// full — the auto-tuner's stopping signal.
	prev := 0.0
	gains := []float64{}
	for m := 1; m <= 8; m++ {
		tp := New(Config{Model: nn.ResNet32, GPUs: 1, LearnersPerGPU: m, Batch: 16, Overlap: true}).Throughput(20)
		if prev > 0 {
			gains = append(gains, tp/prev)
		}
		prev = tp
	}
	last := gains[len(gains)-1]
	first := gains[0]
	if last > first {
		t.Fatalf("throughput gain should shrink with m: first ratio %v, last %v", first, last)
	}
	if last > 1.10 {
		t.Fatalf("throughput still growing strongly at m=8 (ratio %v); expected saturation", last)
	}
}

func TestTauReducesSyncCost(t *testing.T) {
	// Figures 16/17: less frequent synchronisation raises throughput, but
	// only modestly — the sync implementation is off the critical path.
	cfgTau := func(tau int) Config {
		return Config{Model: nn.ResNet32, GPUs: 8, LearnersPerGPU: 1, Batch: 64, Overlap: true, Tau: tau}
	}
	t1 := New(cfgTau(1)).Throughput(40)
	t4 := New(cfgTau(4)).Throughput(40)
	tInf := New(cfgTau(TauNever)).Throughput(40)
	if !(t1 <= t4 && t4 <= tInf) {
		t.Fatalf("throughput should not decrease with τ: τ1=%v τ4=%v τ∞=%v", t1, t4, tInf)
	}
	if tInf > 2*t1 {
		t.Fatalf("no-sync throughput %v more than doubles τ=1 %v — sync too expensive", tInf, t1)
	}
}

func TestSSGDBaselineScalesWithConstantPerGPUBatch(t *testing.T) {
	// Figure 2: holding the per-GPU batch constant (aggregate grows with
	// g) gives near-linear speed-up.
	tp1 := NewSSGD(nn.ResNet32, 1, 128).Throughput(20)
	tp8 := NewSSGD(nn.ResNet32, 8, 1024).Throughput(20)
	speedup := tp8 / tp1
	if speedup < 4 {
		t.Fatalf("8-GPU speed-up with constant per-GPU batch = %.2f, want ≥ 4", speedup)
	}
}

func TestSSGDBaselinePoorScalingWithConstantAggregate(t *testing.T) {
	// Figure 2: a constant aggregate batch (per-GPU batch shrinks) scales
	// sub-linearly.
	tp1 := NewSSGD(nn.ResNet32, 1, 64).Throughput(20)
	tp8 := NewSSGD(nn.ResNet32, 8, 64).Throughput(20)
	speedup := tp8 / tp1
	constantPerGPU := NewSSGD(nn.ResNet32, 8, 512).Throughput(20) /
		NewSSGD(nn.ResNet32, 1, 64).Throughput(20)
	if speedup >= constantPerGPU {
		t.Fatalf("constant-aggregate speed-up %.2f should trail constant-per-GPU %.2f", speedup, constantPerGPU)
	}
}

func TestCrossbowBeatsBaselineDispatchOnSmallModels(t *testing.T) {
	// §5.2/Figure 10d: for LeNet (~1 ms tasks) the task engine's low
	// dispatch cost matters: Crossbow m=1 on one GPU beats the baseline.
	cb := New(Config{Model: nn.LeNet, GPUs: 1, LearnersPerGPU: 1, Batch: 4, Overlap: true}).Throughput(50)
	tf := NewSSGD(nn.LeNet, 1, 4).Throughput(50)
	if cb <= tf {
		t.Fatalf("Crossbow LeNet throughput %v should beat baseline %v", cb, tf)
	}
}

func TestEpochSeconds(t *testing.T) {
	e := New(Config{Model: nn.ResNet32, GPUs: 8, LearnersPerGPU: 2, Batch: 16, Overlap: true})
	sec := e.EpochSeconds(50000, 20)
	if sec <= 0 {
		t.Fatal("epoch duration must be positive")
	}
}

func TestThroughputPositiveAllModels(t *testing.T) {
	for _, id := range nn.AllModels {
		tp := New(Config{Model: id, GPUs: 2, LearnersPerGPU: 2, Batch: 8, Overlap: true}).Throughput(5)
		if tp <= 0 {
			t.Fatalf("%s: throughput %v", id, tp)
		}
	}
}

// TestScalingMonotoneSubLinear is the acceptance sweep: an 8-server
// ResNet-32 cluster under the Ethernet cost model must gain throughput with
// every doubling of servers, but at sub-linear efficiency (the interconnect
// is not free).
func TestScalingMonotoneSubLinear(t *testing.T) {
	tp := make(map[int]float64)
	for _, n := range []int{1, 2, 4, 8} {
		tp[n] = New(Config{
			Model: nn.ResNet32, Servers: n, GPUs: 8,
			LearnersPerGPU: 2, Batch: 16, Overlap: true,
			Net: gpusim.Ethernet10G(),
		}).Throughput(20)
		if tp[n] <= 0 {
			t.Fatalf("servers=%d: throughput %v, want > 0", n, tp[n])
		}
	}
	for _, n := range []int{2, 4, 8} {
		if tp[n] <= tp[n/2] {
			t.Errorf("throughput not monotone: %d servers %v <= %d servers %v",
				n, tp[n], n/2, tp[n/2])
		}
		eff := tp[n] / (float64(n) * tp[1])
		if eff >= 1 {
			t.Errorf("servers=%d: scaling efficiency %v, want sub-linear (< 1)", n, eff)
		}
		t.Logf("servers=%d: %.0f images/s, efficiency %.2f", n, tp[n], eff)
	}
}

// TestInterconnectPressure: a faster network must never lose throughput,
// and on the bandwidth-hungry VGG-16 it must win outright.
func TestInterconnectPressure(t *testing.T) {
	run := func(net gpusim.Interconnect) float64 {
		return New(Config{
			Model: nn.VGG16, Servers: 4, GPUs: 2,
			LearnersPerGPU: 1, Batch: 16, Overlap: true, Net: net,
		}).Throughput(20)
	}
	eth := run(gpusim.Ethernet10G())
	ib := run(gpusim.InfiniBandEDR())
	if ib <= eth {
		t.Errorf("InfiniBand %v images/s <= 10GbE %v — faster interconnect must help VGG-16", ib, eth)
	}
}

// TestTauGlobalRelaxation: averaging across servers less often must not
// slow the cluster down, and under a slow interconnect it should speed it
// up (the τ trade-off of §5.5, one tier up).
func TestTauGlobalRelaxation(t *testing.T) {
	run := func(tauG int) float64 {
		return New(Config{
			Model: nn.ResNet32, Servers: 4, GPUs: 2,
			LearnersPerGPU: 1, Batch: 16, TauGlobal: tauG, Overlap: true,
			Net: gpusim.Ethernet10G(),
		}).Throughput(24)
	}
	if t1, t4 := run(1), run(4); t4 < t1 {
		t.Errorf("tau_global=4 throughput %v < tau_global=1 %v — relaxing sync must not cost", t4, t1)
	}
}

// TestOverlapHidesCrossServerSync: overlapping synchronisation with the
// next iteration's learning tasks (Figure 8, extended to the cluster tier)
// must beat the execution-barrier schedule.
func TestOverlapHidesCrossServerSync(t *testing.T) {
	run := func(overlap bool) float64 {
		return New(Config{
			Model: nn.ResNet32, Servers: 2, GPUs: 2,
			LearnersPerGPU: 2, Batch: 16, Overlap: overlap,
			Net: gpusim.Ethernet10G(),
		}).Throughput(20)
	}
	on, off := run(true), run(false)
	if on <= off {
		t.Errorf("overlap %v images/s <= barrier %v — overlap must hide sync", on, off)
	}
}

// TestClusterUtilisation sanity-checks the shared clock: every server's
// devices must see work.
func TestClusterUtilisation(t *testing.T) {
	c := New(Config{
		Model: nn.ResNet32, Servers: 2, GPUs: 2,
		LearnersPerGPU: 2, Batch: 16, Overlap: true,
	})
	c.RunIterations(10)
	for d := 0; d < c.Sim().NumDevices(); d++ {
		if busy := c.Sim().Device(d).Busy; busy <= 0 {
			t.Errorf("device %d idle for the whole run (%v SM-µs busy)", d, busy)
		}
	}
	if got := c.K(); got != 2*2*2 {
		t.Errorf("K() = %d, want 8", got)
	}
}
