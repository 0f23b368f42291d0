package cluster

import (
	"testing"

	"crossbow/internal/engine"
	"crossbow/internal/nn"
)

// TestSingleServerDegenerate pins the acceptance criterion that the cluster
// plane reproduces single-server results exactly: with Servers=1 no
// cross-server task is scheduled, so the cluster engine's virtual timeline
// — and therefore its throughput — must be bit-identical to the plain
// engine's.
func TestSingleServerDegenerate(t *testing.T) {
	cases := []struct {
		model nn.ModelID
		gpus  int
		m     int
		tau   int
	}{
		{nn.LeNet, 1, 1, 1},
		{nn.ResNet32, 2, 2, 1},
		{nn.ResNet32, 4, 2, 4},
		{nn.VGG16, 2, 1, 1},
	}
	for _, tc := range cases {
		single := engine.New(engine.Config{
			Model: tc.model, GPUs: tc.gpus, LearnersPerGPU: tc.m,
			Batch: 16, Tau: tc.tau, Overlap: true,
		}).Throughput(20)
		clustered := New(Config{
			Model: tc.model, Servers: 1, GPUsPerServer: tc.gpus,
			LearnersPerGPU: tc.m, Batch: 16, TauLocal: tc.tau, Overlap: true,
		}).Throughput(20)
		if single != clustered {
			t.Errorf("%s g=%d m=%d tau=%d: cluster(1 server)=%v images/s, engine=%v — degenerate case must be identical",
				tc.model, tc.gpus, tc.m, tc.tau, clustered, single)
		}
		if single <= 0 {
			t.Errorf("%s: throughput %v, want > 0", tc.model, single)
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
			Model: nn.ResNet32, Servers: n, GPUsPerServer: 8,
			LearnersPerGPU: 2, Batch: 16, Overlap: true,
			Net: Ethernet10G(),
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
	run := func(net Interconnect) float64 {
		return New(Config{
			Model: nn.VGG16, Servers: 4, GPUsPerServer: 2,
			LearnersPerGPU: 1, Batch: 16, Overlap: true, Net: net,
		}).Throughput(20)
	}
	eth := run(Ethernet10G())
	ib := run(InfiniBandEDR())
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
			Model: nn.ResNet32, Servers: 4, GPUsPerServer: 2,
			LearnersPerGPU: 1, Batch: 16, TauGlobal: tauG, Overlap: true,
			Net: Ethernet10G(),
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
			Model: nn.ResNet32, Servers: 2, GPUsPerServer: 2,
			LearnersPerGPU: 2, Batch: 16, Overlap: overlap,
			Net: Ethernet10G(),
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
		Model: nn.ResNet32, Servers: 2, GPUsPerServer: 2,
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
