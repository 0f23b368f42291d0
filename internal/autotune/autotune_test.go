package autotune

import (
	"testing"

	"crossbow/internal/engine"
	"crossbow/internal/nn"
)

func TestTuneFindsThroughputPeak(t *testing.T) {
	// ResNet-32 at small batch on one GPU: the sweep in the engine tests
	// peaks around m≈4; Alg 2 must land near it (within the tolerance
	// threshold's slack).
	res := Tune(engine.Config{Model: nn.ResNet32, GPUs: 1, Batch: 16, Overlap: true})
	if res.Chosen < 2 || res.Chosen > 6 {
		t.Fatalf("chosen m = %d, want the saturation point (2-6); history %v", res.Chosen, res.History)
	}
	// The chosen configuration's throughput must be within a whisker of
	// the best measured.
	var best, chosen float64
	for _, d := range res.History {
		if d.Throughput > best {
			best = d.Throughput
		}
		if d.M == res.Chosen {
			chosen = d.Throughput
		}
	}
	if chosen < 0.85*best {
		t.Fatalf("chosen m=%d throughput %v far below best %v", res.Chosen, chosen, best)
	}
}

func TestTuneLargerBatchNeedsFewerLearners(t *testing.T) {
	small := Tune(engine.Config{Model: nn.ResNet32, GPUs: 1, Batch: 8, Overlap: true})
	large := Tune(engine.Config{Model: nn.ResNet32, GPUs: 1, Batch: 128, Overlap: true})
	if large.Chosen > small.Chosen {
		t.Fatalf("b=128 chose m=%d > b=8 m=%d; bigger batches should saturate with fewer learners",
			large.Chosen, small.Chosen)
	}
}

func TestTuneHistoryStartsAtOne(t *testing.T) {
	res := Tune(engine.Config{Model: nn.LeNet, GPUs: 1, Batch: 4, Overlap: true})
	if len(res.History) == 0 || res.History[0].M != 1 {
		t.Fatalf("history must start at m=1: %v", res.History)
	}
	if res.Chosen < 1 {
		t.Fatalf("chosen = %d", res.Chosen)
	}
}

func TestMemoryCapsLearners(t *testing.T) {
	// ResNet-50 at batch 32 needs several GB per learner (§4.5: ~7.5 GB
	// of outputs before planning); 12 GB fits very few learners.
	spec := nn.FullSpec(nn.ResNet50)
	cap32 := MemoryCap(spec, 32, 12<<30)
	if cap32 > 4 {
		t.Fatalf("ResNet-50 b=32 memory cap = %d, want ≤ 4", cap32)
	}
	cap2 := MemoryCap(spec, 2, 12<<30)
	if cap2 <= cap32 {
		t.Fatalf("smaller batches must fit more learners: b=2 cap %d vs b=32 cap %d", cap2, cap32)
	}
}

func TestMemoryCapAtLeastOne(t *testing.T) {
	if c := MemoryCap(nn.FullSpec(nn.ResNet50), 64, 1<<30); c != 1 {
		t.Fatalf("cap = %d, want 1 (engine cannot run without a learner)", c)
	}
}

func TestLearnerFootprintGrowsWithBatch(t *testing.T) {
	spec := nn.FullSpec(nn.VGG16)
	f8 := LearnerFootprint(spec, 8)
	f64 := LearnerFootprint(spec, 64)
	if f64 <= f8 {
		t.Fatalf("footprint must grow with batch: %d vs %d", f8, f64)
	}
}

func TestTuneRespectsMemoryLimit(t *testing.T) {
	// ResNet-50 at b=64 fits a single learner in the device's 12 GB: the
	// tuner must settle there without probing a second one.
	res := Tune(engine.Config{Model: nn.ResNet50, GPUs: 1, Batch: 64, Overlap: true})
	if want := MemoryCap(nn.FullSpec(nn.ResNet50), 64, deviceMemory); res.MemoryCap != want || want != 1 {
		t.Fatalf("memory cap = %d, want %d = 1", res.MemoryCap, want)
	}
	if res.Chosen != 1 || len(res.History) != 1 {
		t.Fatalf("chosen m = %d after %v, want 1 with no probe past the cap", res.Chosen, res.History)
	}
}

func TestTuneUnderClusterSyncPressure(t *testing.T) {
	// Tuning on a 4-server cluster must run the cluster engine and still
	// land on a valid peak; the single-server and cluster measurements are
	// different schedules, so the histories must differ.
	single := Tune(engine.Config{Model: nn.ResNet32, GPUs: 1, Batch: 16, Overlap: true})
	clustered := Tune(engine.Config{Model: nn.ResNet32, GPUs: 1, Batch: 16, Servers: 4, Overlap: true})
	if clustered.Chosen < 1 || clustered.Chosen > clustered.MemoryCap {
		t.Fatalf("cluster-tuned m = %d outside [1, %d]", clustered.Chosen, clustered.MemoryCap)
	}
	if len(clustered.History) == 0 || clustered.History[0].M != 1 {
		t.Fatalf("cluster history must start at m=1: %v", clustered.History)
	}
	// A 4-server cluster processes ~4× the images of one server per
	// iteration; the measured throughputs cannot coincide.
	if clustered.History[0].Throughput == single.History[0].Throughput {
		t.Fatal("cluster tuning measured single-server throughput")
	}
}

func TestTuneClusterDeterministic(t *testing.T) {
	cfg := engine.Config{Model: nn.ResNet32, Servers: 2, GPUs: 2, Batch: 16, Overlap: true}
	a, b := Tune(cfg), Tune(cfg)
	if a.Chosen != b.Chosen || len(a.History) != len(b.History) {
		t.Fatalf("cluster tuning not deterministic: %+v vs %+v", a, b)
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			t.Fatalf("decision %d differs: %+v vs %+v", i, a.History[i], b.History[i])
		}
	}
}
