package crossbow

import (
	"math"
	"testing"

	"crossbow/internal/nn"
	"crossbow/internal/tensor"
)

// TestTrainServersOneMatchesBaseline pins the degenerate case at the API
// boundary: Servers: 1 must take the exact single-server path (same
// throughput, same accuracy series) as a config that never mentions
// servers.
func TestTrainServersOneMatchesBaseline(t *testing.T) {
	base := Config{Model: LeNet, GPUs: 1, LearnersPerGPU: 2, Batch: 8, MaxEpochs: 2}
	one := base
	one.Servers = 1
	a, err := Train(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(one)
	if err != nil {
		t.Fatal(err)
	}
	if a.ThroughputImgSec != b.ThroughputImgSec {
		t.Errorf("throughput differs: %v vs %v", a.ThroughputImgSec, b.ThroughputImgSec)
	}
	if len(a.Series) != len(b.Series) {
		t.Fatalf("series lengths differ: %d vs %d", len(a.Series), len(b.Series))
	}
	for i := range a.Series {
		if a.Series[i] != b.Series[i] {
			t.Errorf("epoch %d differs: %+v vs %+v", i, a.Series[i], b.Series[i])
		}
	}
	if b.Servers != 1 {
		t.Errorf("Result.Servers = %d, want 1", b.Servers)
	}
}

// checkClusterEpoch asserts the time axis of a cluster run: every rank
// passes over the whole training set per epoch, so an epoch of the cluster
// consumes Servers × TrainSamples images at the hardware plane's rate.
func checkClusterEpoch(t *testing.T, model Model, res *Result) {
	t.Helper()
	got := res.EpochSeconds * res.ThroughputImgSec
	want := float64(res.Servers) * float64(nn.FullSpec(model).TrainSamples)
	if math.Abs(got-want) > 1e-9*want {
		t.Fatalf("EpochSeconds × ThroughputImgSec = %v images per epoch, want Servers × TrainSamples = %v", got, want)
	}
}

// TestTrainClusterScaleout runs the full cluster path end to end: both
// planes, two servers as two ranks of this process.
func TestTrainClusterScaleout(t *testing.T) {
	cfg := Config{
		Model: LeNet, Servers: 2, GPUs: 1, LearnersPerGPU: 2,
		Batch: 8, MaxEpochs: 2, Interconnect: Ethernet(),
	}
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(res.Params, again.Params) != 0 {
		t.Fatal("two runs of the same cluster config differ")
	}
	if res.Transport != TransportSimulated {
		t.Fatalf("Result.Transport = %q", res.Transport)
	}
	checkClusterEpoch(t, LeNet, res)
	if res.Servers != 2 {
		t.Fatalf("Result.Servers = %d, want 2", res.Servers)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series has %d epochs, want 2", len(res.Series))
	}
	if res.ThroughputImgSec <= 0 || res.EpochSeconds <= 0 {
		t.Fatalf("hardware plane missing: throughput %v, epoch %vs",
			res.ThroughputImgSec, res.EpochSeconds)
	}
	if res.Params == nil {
		t.Fatal("no trained model returned")
	}

	// LeNet's ~1 ms learning tasks cannot hide a 10GbE exchange (the
	// cluster-tier analogue of the paper's LeNet scheduler bottleneck,
	// §5.2), so a faster interconnect must pay off directly.
	ib, err := Throughput(Config{
		Model: LeNet, Servers: 2, GPUs: 1, LearnersPerGPU: 2, Batch: 8,
		Interconnect: InfiniBand(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ib <= res.ThroughputImgSec {
		t.Errorf("InfiniBand throughput %v <= 10GbE %v on LeNet", ib, res.ThroughputImgSec)
	}
}

// TestClusterSweepScaling checks the sweep helper: efficiency 1 at the
// baseline, monotone throughput, sub-linear efficiency beyond it.
func TestClusterSweepScaling(t *testing.T) {
	pts, err := ClusterSweep(Config{
		Model: ResNet32, GPUs: 2, LearnersPerGPU: 2, Batch: 16,
		Interconnect: Ethernet(),
	}, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3", len(pts))
	}
	if pts[0].Efficiency != 1 {
		t.Errorf("baseline efficiency %v, want 1", pts[0].Efficiency)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].ThroughputImgSec <= pts[i-1].ThroughputImgSec {
			t.Errorf("throughput not monotone at %d servers: %v <= %v",
				pts[i].Servers, pts[i].ThroughputImgSec, pts[i-1].ThroughputImgSec)
		}
		if pts[i].Efficiency >= 1 {
			t.Errorf("%d servers: efficiency %v, want sub-linear", pts[i].Servers, pts[i].Efficiency)
		}
	}

	// No sizes given, as nil or as an empty list, selects the default sweep.
	for _, none := range [][]int{nil, {}} {
		pts, err := ClusterSweep(Config{Model: ResNet32, GPUs: 2, LearnersPerGPU: 2, Batch: 16}, none)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != 4 || pts[0].Servers != 1 || pts[3].Servers != 8 {
			t.Errorf("ClusterSweep(cfg, %#v) = %+v, want the 1, 2, 4, 8 sweep", none, pts)
		}
	}
}

// TestClusterRejectsNonSMA: the cluster plane synchronises hierarchically;
// baseline algorithms must be refused, not silently misconfigured.
func TestClusterRejectsNonSMA(t *testing.T) {
	if _, err := Train(Config{Model: LeNet, Servers: 2, Algo: SSGD, MaxEpochs: 1}); err == nil {
		t.Error("Train with SSGD on 2 servers should fail")
	}
	if _, err := Throughput(Config{Model: LeNet, Servers: 2, Algo: EASGD}); err == nil {
		t.Error("Throughput with EASGD on 2 servers should fail")
	}
	if _, err := ClusterSweep(Config{Model: LeNet, Algo: SSGD}, []int{1, 2}); err == nil {
		t.Error("ClusterSweep with SSGD should fail")
	}
}
