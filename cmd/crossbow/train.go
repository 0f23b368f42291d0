package main

import (
	"flag"
	"fmt"
	"io"

	"crossbow"
	"crossbow/internal/metrics"
)

// trainCmd trains one benchmark model with a chosen algorithm and
// configuration, printing per-epoch test accuracy against simulated
// wall-clock time.
//
//	crossbow train -model resnet32 -gpus 8 -m auto -batch 16 -target 0.85
//	crossbow train -model lenet -algo ssgd -epochs 20
//	crossbow train -model resnet32 -sched fcfs -m 2 -batch 4 -tau 2
//	crossbow train -model lenet -publish :9090 -publish-every 100
//
// With -publish the run streams every published snapshot to serving
// replicas (crossbow serve -follow) as deltas over TCP while it trains.
func trainCmd(fs *flag.FlagSet) runner {
	var t training
	t.register(fs, 1, 30, false)
	algo := fs.String("algo", "sma", "algorithm: sma, sma-hier, ssgd, easgd")
	lr := fs.Float64("lr", 0, "learning rate (0 = per-model default)")
	momentum := fs.Float64("momentum", 0, "momentum (0: the default)")
	sched := fs.String("sched", "lockstep", "task-runtime scheduler: lockstep (barriered oracle) or fcfs (barrier-free)")
	prefetch := fs.Int("prefetch", 0, "staged batches per learner in the input pipeline, min 1 (0: double buffering)")
	publish := fs.String("publish", "", "serve a model feed on this address while training (crossbow serve -follow subscribes)")
	publishEvery := fs.Int("publish-every", 0, "publish a snapshot every N iterations (0 with -publish: 100)")

	return func(stdout, stderr io.Writer) int {
		cfg, err := t.config()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		cfg.Algo = crossbow.Algorithm(*algo)
		cfg.LearnRate = float32(*lr)
		cfg.Momentum = float32(*momentum)
		cfg.Scheduler = crossbow.Scheduler(*sched)
		cfg.Prefetch = *prefetch
		if *publish != "" {
			cfg.PublishAddr = *publish
			cfg.PublishEvery = *publishEvery
			if cfg.PublishEvery <= 0 {
				cfg.PublishEvery = 100
			}
		}
		if !fillDefaults(&cfg, stderr) {
			return 1
		}
		res, err := crossbow.Train(cfg)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}

		if len(res.TuneHistory) > 0 {
			fmt.Fprintln(stdout, "auto-tuner decisions:")
			for _, d := range res.TuneHistory {
				fmt.Fprintf(stdout, "  m=%d -> %.0f images/s\n", d.M, d.Throughput)
			}
		}
		fmt.Fprintf(stdout, "model=%s algo=%s gpus=%d m=%d batch=%d sched=%s\n",
			cfg.Model, cfg.Algo, cfg.GPUs, res.LearnersPerGPU, cfg.Batch, res.Scheduler)
		fmt.Fprintf(stdout, "simulated throughput: %.0f images/s, epoch: %.1f s\n",
			res.ThroughputImgSec, res.EpochSeconds)
		if len(res.Wall) > 0 {
			fmt.Fprintf(stdout, "wall-clock: %.0f images/s, median epoch %.3f s (rounds=%d waits=%d lead<=%d iters)\n",
				res.WallImagesPerSec, metrics.MedianEpochSec(res.Wall),
				res.RuntimeStats.Rounds, res.RuntimeStats.RoundWaits, res.RuntimeStats.MaxLeadIters)
		}
		printSeries(stdout, res, cfg)
		return 0
	}
}
