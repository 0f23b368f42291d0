// Example serving walks the full serving-plane loop (DESIGN.md §11):
// train a model, serve it with the dynamically-batched prediction runtime,
// keep training while publishing consistent snapshots of the central
// average model straight into the live service (hot swap, no dropped
// requests), then persist the final snapshot and serve it back from the
// checkpoint — the exact published model, version and all. Both services
// are one ServeConfig: the model source (Params or Checkpoint) is one of
// its fields, which the engine resolves itself.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"crossbow"
)

func main() {
	// 1. Warm start: one quick epoch gives us a model worth serving.
	base := crossbow.Config{
		Model:        crossbow.ResNet32,
		Batch:        8,
		Seed:         7,
		TrainSamples: 512,
		TestSamples:  128,
	}
	warm := base
	warm.MaxEpochs = 1
	res, err := crossbow.Train(warm)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warm start: %.1f%% accuracy after 1 epoch\n", res.BestAccuracy*100)

	// 2. Serve it: 2 replicas, micro-batches of up to 16, 2ms straggler wait.
	p, err := crossbow.Serve(crossbow.ServeConfig{
		Model: base.Model, Params: res.Params,
		Replicas: 2, MaxBatch: 16, MaxDelay: 2 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer p.Close()

	// Clients hammer the service while training continues underneath.
	sample := make([]float32, p.SampleVol())
	for i := range sample {
		sample[i] = float32(i%11) * 0.1
	}
	var stop atomic.Bool
	served := make(chan int)
	for c := 0; c < 4; c++ {
		go func() {
			n := 0
			for !stop.Load() {
				if _, err := p.Predict(sample); err != nil {
					break
				}
				n++
			}
			served <- n
		}()
	}

	// 3. Keep training, publishing a snapshot every 32 iterations; each one
	// hot-swaps into the live service with its round version.
	cont := base
	cont.MaxEpochs = 2
	cont.LearnersPerGPU = 2
	cont.Scheduler = crossbow.FCFS
	cont.PublishEvery = 32
	var lastSnap crossbow.Snapshot
	cont.OnSnapshot = func(s crossbow.Snapshot) {
		lastSnap = s
		if err := p.UpdateSnapshot(s); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := crossbow.Train(cont); err != nil {
		log.Fatal(err)
	}
	stop.Store(true)
	total := 0
	for c := 0; c < 4; c++ {
		total += <-served
	}

	st := p.Stats()
	fmt.Printf("served %d requests during training: %.1f req/batch occupancy, p50 %.2fms, p99 %.2fms\n",
		total, st.BatchOccupancy, st.P50Ms, st.P99Ms)
	fmt.Printf("service now at model version %d after %d hot swaps\n", p.Version(), st.ModelSwaps)

	// 4. Persist the last snapshot and serve the exact published model back:
	// the same config with Checkpoint as the model source, default batching.
	dir, err := os.MkdirTemp("", "crossbow-serving")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ckptPath := filepath.Join(dir, "snapshot.ckpt")
	if err := crossbow.SaveSnapshot(ckptPath, lastSnap); err != nil {
		log.Fatal(err)
	}
	p2, err := crossbow.Serve(crossbow.ServeConfig{Checkpoint: ckptPath})
	if err != nil {
		log.Fatal(err)
	}
	defer p2.Close()
	pred, err := p2.Predict(sample)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpointed service answers class %d (confidence %.2f) at version %d — the round it was cut at\n",
		pred.Class, pred.Confidence, pred.Version)
}
