// Command crossbow-node runs ONE server of a real TCP crossbow cluster:
// it trains its local learners and all-reduces the server reference model
// with its peers over the wire (Config.Transport: TransportTCP). Launch one
// process per peer-list entry — there is no coordinator; the processes
// bootstrap by dialing each other, and a killed process can simply be
// relaunched: it reseeds itself from a live peer's latest snapshot and
// rejoins the averaging at the next global round.
//
// Usage:
//
//	crossbow-node -rank 0 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 \
//	    -model resnet32 -gpus 1 -m 2 -epochs 10
//	crossbow-node -rank 1 -peers ... &   # each rank in its own process
//	crossbow-node -rank 2 -peers ... -save node2.ckpt
//
// `crossbow-cluster -tcp` spawns the whole mesh on localhost in one step.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"crossbow"
)

func main() {
	os.Exit(nodeMain())
}

func nodeMain() int {
	rank := flag.Int("rank", 0, "this process's rank (index into -peers)")
	peers := flag.String("peers", "", "comma-separated listen addresses, one per rank (required)")
	model := flag.String("model", "resnet32", "benchmark model (lenet, resnet32, vgg16, resnet50)")
	gpus := flag.Int("gpus", 1, "simulated GPUs on this server")
	m := flag.Int("m", 1, "learners per GPU on this server")
	batch := flag.Int("batch", 16, "batch size per learner")
	epochs := flag.Int("epochs", 10, "maximum epochs")
	target := flag.Float64("target", 0, "stop at this test accuracy (0: train -epochs)")
	tau := flag.Int("tau", 1, "intra-server synchronisation period")
	tauGlobal := flag.Int("tau-global", 1, "cross-server averaging period (in intra-server syncs)")
	seed := flag.Uint64("seed", 1, "shared model seed (must match on every rank)")
	samples := flag.Int("samples", 0, "override training samples per epoch (0: model default)")
	testSamples := flag.Int("test-samples", 0, "override test samples (0: model default)")
	save := flag.String("save", "", "write the final cluster average model to this checkpoint path")
	hb := flag.Duration("heartbeat", 100*time.Millisecond, "heartbeat period")
	peerTimeout := flag.Duration("peer-timeout", 0, "declare a silent peer dead after this long (0: 10x heartbeat)")
	roundTimeout := flag.Duration("round-timeout", 0, "abort a collective stalled this long by a live peer (0: 30s)")
	quarantine := flag.Duration("quarantine", 0, "bar a corrupting/stalling peer from reconnecting this long (0: peer-timeout)")
	overlap := flag.Bool("overlap", false, "overlap the global exchange with the next iteration's computation (bit-identical to synchronous)")
	bootstrap := flag.Duration("bootstrap", 10*time.Second, "wait this long for the full mesh before training")
	warm := flag.Duration("warm-start", 2*time.Second, "longest wait on silent peers in the startup snapshot probe (rejoin seeding; a cold cluster answers in one round trip)")
	quiet := flag.Bool("quiet", false, "suppress per-epoch output")
	flag.Parse()

	if *peers == "" {
		fmt.Fprintln(os.Stderr, "crossbow-node: -peers is required")
		return 2
	}
	addrs := strings.Split(*peers, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}

	logf := func(string, ...any) {}
	if !*quiet {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "[rank %d] "+format+"\n", append([]any{*rank}, args...)...)
		}
	}

	res, err := crossbow.Train(crossbow.Config{
		Model:          crossbow.Model(*model),
		Transport:      crossbow.TransportTCP,
		GPUs:           *gpus,
		LearnersPerGPU: *m,
		Batch:          *batch,
		Tau:            *tau,
		TauGlobal:      *tauGlobal,
		MaxEpochs:      *epochs,
		TargetAccuracy: *target,
		Seed:           *seed,
		TrainSamples:   *samples,
		TestSamples:    *testSamples,
		Node: crossbow.NodeConfig{
			Rank:           *rank,
			Peers:          addrs,
			BootstrapWait:  *bootstrap,
			WarmStartWait:  *warm,
			HeartbeatEvery: *hb,
			PeerTimeout:    *peerTimeout,
			RoundTimeout:   *roundTimeout,
			Quarantine:     *quarantine,
			OverlapGlobal:  *overlap,
			Logf:           logf,
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "crossbow-node rank %d: %v\n", *rank, err)
		return 1
	}

	if res.WarmStartRound > 0 {
		fmt.Printf("rank %d: warm-started from peer snapshot of round %d\n", *rank, res.WarmStartRound)
	}
	if !*quiet {
		fmt.Printf("rank %d/%d: model=%s m=%d batch=%d\n", *rank, len(addrs), *model, res.LearnersPerGPU, *batch)
		fmt.Printf("%6s %10s %8s\n", "epoch", "loss", "acc(%)")
		for _, p := range res.Series {
			fmt.Printf("%6d %10.4f %8.2f\n", p.Epoch, p.Loss, p.TestAcc*100)
		}
	}
	ts := res.TransportStats
	fmt.Printf("rank %d: best accuracy %.2f%%; rounds=%d restarts=%d aborts=%d reconnects=%d\n",
		*rank, res.BestAccuracy*100, ts.Rounds, ts.RestartRounds, ts.Aborts, ts.Reconnects)
	fmt.Printf("rank %d: wire %d B out / %d B in over %d frames; round p50=%v p99=%v (collective mean %v; simulated %s predicts %.0fus)\n",
		*rank, ts.BytesSent, ts.BytesRecv, ts.FramesSent+ts.FramesRecv,
		ts.RoundP50, ts.RoundP99, ts.CollectiveMean,
		res.Interconnect.Name, res.Interconnect.AllReduceUS(int64(len(res.Params))*4, res.Servers))
	if ts.AsyncRounds > 0 {
		total := ts.OverlapHiddenNs + ts.OverlapBlockedNs
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(ts.OverlapHiddenNs) / float64(total)
		}
		fmt.Printf("rank %d: overlapped %d rounds; hid %v of exchange time behind compute, %v exposed (%.0f%% hidden)\n",
			*rank, ts.AsyncRounds, time.Duration(ts.OverlapHiddenNs), time.Duration(ts.OverlapBlockedNs), pct)
	}

	if *save != "" {
		if err := crossbow.SaveModel(*save, crossbow.Model(*model), res); err != nil {
			fmt.Fprintf(os.Stderr, "crossbow-node rank %d: save: %v\n", *rank, err)
			return 1
		}
		fmt.Printf("rank %d: saved %s\n", *rank, *save)
	}
	return 0
}
