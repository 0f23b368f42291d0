package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"crossbow"
)

// nodeCmd runs ONE server of a real TCP crossbow cluster: it trains its
// local learners and all-reduces the server reference model with its peers
// over the wire (Config.Transport: TransportTCP). Launch one process per
// peer-list entry — there is no coordinator; the processes bootstrap by
// dialing each other, and a killed process can simply be relaunched: it
// reseeds itself from a live peer's latest snapshot and rejoins the
// averaging at the next global round.
//
//	crossbow node -rank 0 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 \
//	    -model resnet32 -gpus 1 -m 2 -epochs 10
//	crossbow node -rank 1 -peers ... &   # each rank in its own process
//	crossbow node -rank 2 -peers ... -save node2.ckpt
//
// `crossbow cluster -tcp` runs the whole mesh on localhost in one step, as
// node processes of its own binary.
func nodeCmd(fs *flag.FlagSet) runner {
	var t training
	t.register(fs, 1, 10, true)
	rank := fs.Int("rank", 0, "this process's rank (index into -peers)")
	peers := fs.String("peers", "", "comma-separated listen addresses, one per rank (required)")
	testSamples := fs.Int("test-samples", 0, "override test samples (0: model default)")
	save := fs.String("save", "", "write the final cluster average model to this checkpoint path")
	// Every duration defaults to 0, which the transport reads as its own
	// default (transport.Config.FillDefaults), so each value lives there once.
	hb := fs.Duration("heartbeat", 0, "heartbeat period (0: 100ms)")
	peerTimeout := fs.Duration("peer-timeout", 0, "declare a silent peer dead after this long (0: 10x heartbeat)")
	roundTimeout := fs.Duration("round-timeout", 0, "abort a collective stalled this long by a live peer (0: 30s)")
	quarantine := fs.Duration("quarantine", 0, "bar a corrupting/stalling peer from reconnecting this long (0: peer-timeout)")
	bootstrap := fs.Duration("bootstrap", 0, "wait this long for the full mesh before training (0: 10s)")
	warm := fs.Duration("warm-start", 0, "longest wait on silent peers in the startup snapshot probe (rejoin seeding; a cold cluster answers in one round trip; 0: 2s)")
	quiet := fs.Bool("quiet", false, "suppress per-epoch output")

	return func(stdout, stderr io.Writer) int {
		if *peers == "" {
			fmt.Fprintln(stderr, "crossbow node: -peers is required")
			return 2
		}
		cfg, err := t.config()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		addrs := strings.Split(*peers, ",")
		for i := range addrs {
			addrs[i] = strings.TrimSpace(addrs[i])
		}
		logf := func(string, ...any) {}
		if !*quiet {
			logf = func(format string, args ...any) {
				fmt.Fprintf(stderr, "[rank %d] "+format+"\n", append([]any{*rank}, args...)...)
			}
		}
		cfg.Transport = crossbow.TransportTCP
		cfg.TestSamples = *testSamples
		cfg.Node = crossbow.NodeConfig{
			Rank:           *rank,
			Peers:          addrs,
			BootstrapWait:  *bootstrap,
			WarmStartWait:  *warm,
			HeartbeatEvery: *hb,
			PeerTimeout:    *peerTimeout,
			RoundTimeout:   *roundTimeout,
			Quarantine:     *quarantine,
			OverlapGlobal:  t.overlap,
			Logf:           logf,
		}
		if !fillDefaults(&cfg, stderr) {
			return 1
		}
		res, err := crossbow.Train(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "crossbow node rank %d: %v\n", *rank, err)
			return 1
		}

		if res.WarmStartRound > 0 {
			fmt.Fprintf(stdout, "rank %d: warm-started from peer snapshot of round %d\n", *rank, res.WarmStartRound)
		}
		if !*quiet {
			fmt.Fprintf(stdout, "rank %d/%d: model=%s m=%d batch=%d\n", *rank, len(addrs), cfg.Model, res.LearnersPerGPU, cfg.Batch)
			fmt.Fprintf(stdout, "%6s %10s %8s\n", "epoch", "loss", "acc(%)")
			for _, p := range res.Series {
				fmt.Fprintf(stdout, "%6d %10.4f %8.2f\n", p.Epoch, p.Loss, p.TestAcc*100)
			}
		}
		ts := res.TransportStats
		fmt.Fprintf(stdout, "rank %d: best accuracy %.2f%%; rounds=%d restarts=%d aborts=%d reconnects=%d\n",
			*rank, res.BestAccuracy*100, ts.Rounds, ts.RestartRounds, ts.Aborts, ts.Reconnects)
		fmt.Fprintf(stdout, "rank %d: wire %d B out / %d B in over %d frames; round p50=%v p99=%v (collective mean %v; simulated %s predicts %.0fus)\n",
			*rank, ts.BytesSent, ts.BytesRecv, ts.FramesSent+ts.FramesRecv,
			ts.RoundP50, ts.RoundP99, ts.CollectiveMean,
			res.Interconnect.Name, res.Interconnect.AllReduceUS(int64(len(res.Params))*4, res.Servers))
		if ts.AsyncRounds > 0 {
			total := ts.OverlapHiddenNs + ts.OverlapBlockedNs
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(ts.OverlapHiddenNs) / float64(total)
			}
			fmt.Fprintf(stdout, "rank %d: overlapped %d rounds; hid %v of exchange time behind compute, %v exposed (%.0f%% hidden)\n",
				*rank, ts.AsyncRounds, time.Duration(ts.OverlapHiddenNs), time.Duration(ts.OverlapBlockedNs), pct)
		}

		if *save != "" {
			if err := crossbow.SaveModel(*save, cfg.Model, res); err != nil {
				fmt.Fprintf(stderr, "crossbow node rank %d: save: %v\n", *rank, err)
				return 1
			}
			fmt.Fprintf(stdout, "rank %d: saved %s\n", *rank, *save)
		}
		return 0
	}
}
