// Command crossbow-train trains one benchmark model with a chosen
// algorithm and configuration, printing per-epoch test accuracy against
// simulated wall-clock time.
//
// Usage:
//
//	crossbow-train -model resnet32 -gpus 8 -m auto -batch 16 -target 0.85
//	crossbow-train -model lenet -algo ssgd -epochs 20
//	crossbow-train -model resnet32 -sched fcfs -m 2 -batch 4 -tau 2
//	crossbow-train -model lenet -publish :9090 -publish-every 100
//
// With -publish the run streams every published snapshot to serving
// replicas (crossbow-serve -follow) as deltas over TCP while it trains.
package main

import (
	"flag"
	"fmt"
	"os"

	"crossbow"
	"crossbow/internal/metrics"
)

func main() {
	model := flag.String("model", "resnet32", "benchmark model (lenet, resnet32, vgg16, resnet50)")
	algo := flag.String("algo", "sma", "algorithm: sma, sma-hier, ssgd, easgd, asgd")
	gpus := flag.Int("gpus", 1, "number of simulated GPUs")
	m := flag.String("m", "1", "learners per GPU, or 'auto' for Algorithm 2")
	batch := flag.Int("batch", 16, "batch size per learner")
	epochs := flag.Int("epochs", 30, "maximum epochs")
	target := flag.Float64("target", 0, "stop at this test accuracy (TTA target); 0 trains all epochs")
	lr := flag.Float64("lr", 0, "learning rate (0 = per-model default)")
	momentum := flag.Float64("momentum", 0.9, "momentum")
	tau := flag.Int("tau", 1, "synchronisation period")
	seed := flag.Uint64("seed", 1, "random seed")
	sched := flag.String("sched", "lockstep", "task-runtime scheduler: lockstep (barriered oracle) or fcfs (barrier-free)")
	prefetch := flag.Int("prefetch", 0, "staged batches per learner in the input pipeline, min 1 (0: double buffering)")
	publish := flag.String("publish", "", "serve a model feed on this address while training (crossbow-serve -follow subscribes)")
	publishEvery := flag.Int("publish-every", 0, "publish a snapshot every N iterations (0 with -publish: 100)")
	flag.Parse()

	learners := 1
	if *m == "auto" {
		learners = crossbow.AutoTune
	} else if _, err := fmt.Sscanf(*m, "%d", &learners); err != nil {
		fmt.Fprintf(os.Stderr, "bad -m %q\n", *m)
		os.Exit(2)
	}

	cfg := crossbow.Config{
		Model:          crossbow.Model(*model),
		Algo:           crossbow.Algorithm(*algo),
		GPUs:           *gpus,
		LearnersPerGPU: learners,
		Batch:          *batch,
		LearnRate:      float32(*lr),
		Momentum:       float32(*momentum),
		Tau:            *tau,
		MaxEpochs:      *epochs,
		TargetAccuracy: *target,
		Seed:           *seed,
		Scheduler:      crossbow.Scheduler(*sched),
		Prefetch:       *prefetch,
	}
	if *publish != "" {
		cfg.PublishAddr = *publish
		cfg.PublishEvery = *publishEvery
		if cfg.PublishEvery <= 0 {
			cfg.PublishEvery = 100
		}
	}
	res, err := crossbow.Train(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if len(res.TuneHistory) > 0 {
		fmt.Println("auto-tuner decisions:")
		for _, d := range res.TuneHistory {
			fmt.Printf("  m=%d -> %.0f images/s\n", d.M, d.Throughput)
		}
	}
	fmt.Printf("model=%s algo=%s gpus=%d m=%d batch=%d sched=%s\n",
		*model, *algo, *gpus, res.LearnersPerGPU, *batch, res.Scheduler)
	fmt.Printf("simulated throughput: %.0f images/s, epoch: %.1f s\n",
		res.ThroughputImgSec, res.EpochSeconds)
	if len(res.Wall) > 0 {
		fmt.Printf("wall-clock: %.0f images/s, median epoch %.3f s (rounds=%d waits=%d lead<=%d iters)\n",
			res.WallImagesPerSec, metrics.MedianEpochSec(res.Wall),
			res.RuntimeStats.Rounds, res.RuntimeStats.RoundWaits, res.RuntimeStats.MaxLeadIters)
	}
	fmt.Printf("%6s %10s %10s %8s\n", "epoch", "time(s)", "loss", "acc(%)")
	for _, p := range res.Series {
		fmt.Printf("%6d %10.1f %10.4f %8.2f\n", p.Epoch, p.TimeSec, p.Loss, p.TestAcc*100)
	}
	fmt.Printf("best accuracy: %.2f%%\n", res.BestAccuracy*100)
	if *target > 0 {
		if res.TTASeconds >= 0 {
			fmt.Printf("TTA(%.0f%%): %.1f s (%d epochs)\n", *target*100, res.TTASeconds, res.EpochsToTarget)
		} else {
			fmt.Printf("target %.0f%% not reached in %d epochs\n", *target*100, *epochs)
		}
	}
}
