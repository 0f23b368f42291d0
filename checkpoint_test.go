package crossbow

import (
	"path/filepath"
	"testing"

	"crossbow/internal/tensor"
)

func TestSaveLoadModelRoundTrip(t *testing.T) {
	res, err := Train(Config{Model: LeNet, GPUs: 1, LearnersPerGPU: 1, Batch: 8, MaxEpochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Params == nil {
		t.Fatal("result has no parameters")
	}
	path := filepath.Join(t.TempDir(), "lenet.ckpt")
	if err := SaveModel(path, LeNet, res); err != nil {
		t.Fatal(err)
	}
	model, params, epoch, best, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if model != LeNet {
		t.Fatalf("model = %s", model)
	}
	if epoch != 2 {
		t.Fatalf("epoch = %d", epoch)
	}
	if best != res.BestAccuracy {
		t.Fatalf("best = %v, want %v", best, res.BestAccuracy)
	}
	if tensor.MaxAbsDiff(params, res.Params) != 0 {
		t.Fatal("parameters corrupted")
	}
}

func TestSaveModelRejectsEmptyResult(t *testing.T) {
	if err := SaveModel(filepath.Join(t.TempDir(), "x.ckpt"), LeNet, &Result{}); err == nil {
		t.Fatal("expected error")
	}
}

// TestSaveLoadClusterModelRoundTrip covers checkpoints written under the
// cluster config fields: the trained model round-trips bit-exactly and the
// cluster context (server count, interconnect) is recorded as metadata.
func TestSaveLoadClusterModelRoundTrip(t *testing.T) {
	cfg := Config{
		Model: LeNet, Servers: 2, GPUs: 1, LearnersPerGPU: 2,
		Batch: 8, MaxEpochs: 2, Interconnect: InfiniBand(),
	}
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The interconnect is the hardware plane's: the trained bytes do not
	// depend on it, nor on the run.
	cfg.Interconnect = Ethernet()
	if again, err := Train(cfg); err != nil || tensor.MaxAbsDiff(res.Params, again.Params) != 0 {
		t.Fatalf("two runs of the same cluster config differ (err %v)", err)
	}
	path := filepath.Join(t.TempDir(), "lenet-cluster.ckpt")
	if err := SaveModel(path, LeNet, res); err != nil {
		t.Fatal(err)
	}

	// The plain loader still works on cluster checkpoints.
	model, params, epoch, best, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if model != LeNet || epoch != 2 || best != res.BestAccuracy {
		t.Fatalf("context mismatch: %s epoch=%d best=%v", model, epoch, best)
	}
	if tensor.MaxAbsDiff(params, res.Params) != 0 {
		t.Fatal("parameters corrupted")
	}

	// The full loader surfaces the cluster metadata.
	c, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Meta["servers"] != "2" || c.Meta["interconnect"] != "IB-EDR" {
		t.Fatalf("cluster metadata missing: %v", c.Meta)
	}
}

// TestSingleServerCheckpointHasNoClusterMeta: single-server results write
// checkpoints indistinguishable in shape from pre-cluster ones.
func TestSingleServerCheckpointHasNoClusterMeta(t *testing.T) {
	res, err := Train(Config{Model: LeNet, GPUs: 1, LearnersPerGPU: 1, Batch: 8, MaxEpochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lenet.ckpt")
	if err := SaveModel(path, LeNet, res); err != nil {
		t.Fatal(err)
	}
	c, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Meta) != 0 {
		t.Fatalf("unexpected metadata on single-server checkpoint: %v", c.Meta)
	}
}
