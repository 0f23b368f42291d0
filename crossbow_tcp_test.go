package crossbow

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"crossbow/internal/ckpt"
	"crossbow/internal/transport"
)

// TestMain doubles this test binary as the crossbow node process for the
// kill-and-rejoin test: with CROSSBOW_TCP_NODE=1 it runs one TCP cluster
// rank instead of the test suite (the standard exec-helper pattern, so the
// multi-process test needs no separate build step).
func TestMain(m *testing.M) {
	if os.Getenv("CROSSBOW_TCP_NODE") == "1" {
		os.Exit(tcpNodeMain())
	}
	os.Exit(m.Run())
}

// tcpPeers binds n loopback listeners on ephemeral ports so in-process
// cluster tests never collide, returning the address list and listeners.
func tcpPeers(t *testing.T, n int) ([]string, []net.Listener) {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		addrs[i], lns[i] = ln.Addr().String(), ln
	}
	return addrs, lns
}

// fastNode returns node settings tuned for in-process tests: quick
// bootstrap and dialing, but a generous peer timeout — on a starved CI
// core, compute can stall heartbeat goroutines well past production
// deadlines, and a spurious death would silently shrink the view. (Real
// crashes are detected by connection reset, not by this timeout.)
func fastNode(rank int, addrs []string, ln net.Listener) NodeConfig {
	return NodeConfig{
		Rank: rank, Peers: addrs, Listener: ln,
		BootstrapWait:  5 * time.Second,
		WarmStartWait:  300 * time.Millisecond,
		HeartbeatEvery: 50 * time.Millisecond,
		PeerTimeout:    5 * time.Second,
		DialBackoff:    10 * time.Millisecond,
	}
}

// TestTrainTCPCluster runs the acceptance scenario in-process: three TCP
// nodes train ResNet-32 with Servers: 3 and must agree bit-for-bit on the
// final cluster average model while staying inside the single-server
// convergence envelope.
func TestTrainTCPCluster(t *testing.T) {
	const servers = 3
	base := Config{
		Model: ResNet32, GPUs: 1, LearnersPerGPU: 2, Batch: 8,
		MaxEpochs: 2, Seed: 42, TrainSamples: 128, TestSamples: 64,
	}

	// Single-server oracle for the convergence envelope.
	solo, err := Train(base)
	if err != nil {
		t.Fatal(err)
	}

	addrs, lns := tcpPeers(t, servers)
	results := make([]*Result, servers)
	errs := make([]error, servers)
	var wg sync.WaitGroup
	for r := 0; r < servers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := base
			cfg.Servers = servers
			cfg.Transport = TransportTCP
			cfg.Node = fastNode(r, addrs, lns[r])
			results[r], errs[r] = Train(cfg)
		}(r)
	}
	wg.Wait()

	for r, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", r, err)
		}
	}
	for r, res := range results {
		if res.Transport != TransportTCP || res.Servers != servers {
			t.Fatalf("node %d: transport %q servers %d", r, res.Transport, res.Servers)
		}
		if res.WarmStartRound != 0 {
			t.Fatalf("node %d: cold bootstrap reported warm start from round %d", r, res.WarmStartRound)
		}
		checkClusterEpoch(t, ResNet32, res)
		if res.TransportStats.Rounds < 1 {
			t.Fatalf("node %d: no transport rounds completed: %+v", r, res.TransportStats)
		}
		// PeerDeaths counts teardown leaves too, so the healthy-run check
		// is on the round ledger: no round aborted or re-aligned.
		if res.TransportStats.RestartRounds != 0 || res.TransportStats.Aborts != 0 {
			t.Fatalf("node %d: churn on a healthy cluster: %+v", r, res.TransportStats)
		}
		if res.TransportStats.BytesSent == 0 || res.TransportStats.FramesRecv == 0 {
			t.Fatalf("node %d: wire counters empty: %+v", r, res.TransportStats)
		}
		// Every global round all-reduces the full model across the mesh.
		minBytes := int64(res.TransportStats.Rounds) * int64(len(res.Params)) * 4 / int64(servers)
		if res.TransportStats.BytesSent < minBytes {
			t.Fatalf("node %d: sent %d bytes over %d rounds of a %d-param model",
				r, res.TransportStats.BytesSent, res.TransportStats.Rounds, len(res.Params))
		}
	}

	// Replication invariant: the cluster average model is bit-identical on
	// every node (never transmitted — each node derives it from the
	// fixed-order consensus sum).
	for r := 1; r < servers; r++ {
		for i := range results[0].Params {
			if math.Float32bits(results[0].Params[i]) != math.Float32bits(results[r].Params[i]) {
				t.Fatalf("param %d differs between node 0 and node %d: %v vs %v",
					i, r, results[0].Params[i], results[r].Params[i])
			}
		}
	}

	// Convergence envelope: 3 servers × 2 learners sees 3× the data of the
	// single server per epoch; its accuracy must stay in the same regime.
	if results[0].BestAccuracy < solo.BestAccuracy-0.25 {
		t.Fatalf("TCP cluster accuracy %.3f fell out of the single-server envelope (%.3f)",
			results[0].BestAccuracy, solo.BestAccuracy)
	}
	for _, p := range results[0].Series {
		if math.IsNaN(p.Loss) || math.IsInf(p.Loss, 0) {
			t.Fatalf("cluster training diverged: %+v", p)
		}
	}
}

// TestTCPColdStartDoesNotWait pins what a cold bootstrap costs. With
// WarmStartWait at its 2s default, two fresh ranks hear from each other
// that neither holds a snapshot and start training one round trip later,
// from the shared-seed w0: one iteration of training returns well inside
// the window, and the ranks agree on the final model.
func TestTCPColdStartDoesNotWait(t *testing.T) {
	const servers = 2
	addrs, lns := tcpPeers(t, servers)
	results := make([]*Result, servers)
	errs := make([]error, servers)
	took := make([]time.Duration, servers)
	var wg sync.WaitGroup
	for r := 0; r < servers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			node := fastNode(r, addrs, lns[r])
			node.WarmStartWait = 0 // the default
			start := time.Now()
			results[r], errs[r] = Train(Config{
				Model: LeNet, GPUs: 1, LearnersPerGPU: 1, Batch: 8,
				MaxEpochs: 1, Seed: 3, TrainSamples: 8, TestSamples: 8,
				Servers: servers, Transport: TransportTCP, Node: node,
			})
			took[r] = time.Since(start)
		}(r)
	}
	wg.Wait()
	for r, res := range results {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		if took[r] >= time.Second || res.WarmStartRound != 0 {
			t.Fatalf("rank %d: Train took %v with WarmStartRound %d, want < 1s from w0", r, took[r], res.WarmStartRound)
		}
	}
	if a, b := ckpt.ParamsCRC(results[0].Params), ckpt.ParamsCRC(results[1].Params); a != b {
		t.Fatalf("ranks disagree on the final model: CRC %08x vs %08x", a, b)
	}
}

// TestTrainTCPOverlapBitIdentical is the correctness pin of the overlapped
// global exchange: the SAME three-node ResNet-32 run, once synchronous and
// once with OverlapGlobal, must produce a bit-for-bit identical final
// cluster average model AND bit-identical published snapshots at every
// round. Overlap moves the all-reduce off the critical path — between
// launch and fold only forward/backward work runs, which never touches the
// reference model — so the folded bytes must match the synchronous
// schedule's exactly.
func TestTrainTCPOverlapBitIdentical(t *testing.T) {
	const servers = 3
	run := func(overlap bool) ([]*Result, [][]Snapshot) {
		addrs, lns := tcpPeers(t, servers)
		results := make([]*Result, servers)
		snaps := make([][]Snapshot, servers)
		errs := make([]error, servers)
		var wg sync.WaitGroup
		for r := 0; r < servers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				node := fastNode(r, addrs, lns[r])
				node.OverlapGlobal = overlap
				results[r], errs[r] = Train(Config{
					Model: ResNet32, GPUs: 1, LearnersPerGPU: 2, Batch: 8,
					MaxEpochs: 2, Seed: 42, TrainSamples: 128, TestSamples: 64,
					Servers: servers, Transport: TransportTCP,
					// Snapshots every 2 iterations: the pin covers not just the
					// final model but every intermediate published artefact.
					PublishEvery: 2,
					OnSnapshot:   func(s Snapshot) { snaps[r] = append(snaps[r], s) },
					Node:         node,
				})
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("overlap=%v node %d: %v", overlap, r, err)
			}
		}
		return results, snaps
	}

	syncRes, syncSnaps := run(false)
	overRes, overSnaps := run(true)

	for r := 0; r < servers; r++ {
		if syncRes[r].TransportStats.AsyncRounds != 0 {
			t.Fatalf("synchronous node %d used the async path: %+v", r, syncRes[r].TransportStats)
		}
		if overRes[r].TransportStats.AsyncRounds < 1 {
			t.Fatalf("overlap node %d never overlapped a round: %+v", r, overRes[r].TransportStats)
		}
		if overRes[r].TransportStats.Aborts != 0 || overRes[r].TransportStats.RestartRounds != 0 {
			t.Fatalf("overlap node %d saw churn on a healthy cluster: %+v", r, overRes[r].TransportStats)
		}
	}

	// Final model: byte-for-byte across modes (and, transitively, across
	// ranks — TestTrainTCPCluster pins rank agreement).
	for r := 0; r < servers; r++ {
		if len(syncRes[r].Params) != len(overRes[r].Params) {
			t.Fatalf("node %d: param count %d vs %d", r, len(syncRes[r].Params), len(overRes[r].Params))
		}
		for i := range syncRes[r].Params {
			if math.Float32bits(syncRes[r].Params[i]) != math.Float32bits(overRes[r].Params[i]) {
				t.Fatalf("node %d param %d: sync %v vs overlap %v — overlap changed the math",
					r, i, syncRes[r].Params[i], overRes[r].Params[i])
			}
		}
	}

	// Every published snapshot: same rounds, same bytes.
	for r := 0; r < servers; r++ {
		if len(syncSnaps[r]) == 0 || len(syncSnaps[r]) != len(overSnaps[r]) {
			t.Fatalf("node %d: %d sync snapshots vs %d overlap", r, len(syncSnaps[r]), len(overSnaps[r]))
		}
		for k := range syncSnaps[r] {
			s, o := syncSnaps[r][k], overSnaps[r][k]
			if s.Round != o.Round || s.Iter != o.Iter || len(s.Params) != len(o.Params) {
				t.Fatalf("node %d snapshot %d: (round %d iter %d, %d params) vs (round %d iter %d, %d params)",
					r, k, s.Round, s.Iter, len(s.Params), o.Round, o.Iter, len(o.Params))
			}
			for i := range s.Params {
				if math.Float32bits(s.Params[i]) != math.Float32bits(o.Params[i]) {
					t.Fatalf("node %d snapshot %d (round %d) param %d: sync %v vs overlap %v",
						r, k, s.Round, i, s.Params[i], o.Params[i])
				}
			}
		}
	}
}

// trainTCPRanks runs cfg as an in-process TCP cluster, one goroutine per
// rank, returning every rank's result and rank 0's published snapshots.
func trainTCPRanks(t *testing.T, cfg Config) ([]*Result, []Snapshot) {
	t.Helper()
	addrs, lns := tcpPeers(t, cfg.Servers)
	results := make([]*Result, cfg.Servers)
	errs := make([]error, cfg.Servers)
	var snaps []Snapshot
	var wg sync.WaitGroup
	for r := range results {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := cfg
			c.Transport = TransportTCP
			c.Node = fastNode(r, addrs, lns[r])
			if r == 0 {
				c.OnSnapshot = func(s Snapshot) { snaps = append(snaps, s) }
			}
			results[r], errs[r] = Train(c)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("TCP rank %d: %v", r, err)
		}
		if st := results[r].TransportStats; st.Aborts != 0 || st.RestartRounds != 0 {
			// The transport's fault, not the trainer's: the unexplained
			// mid-run abort of benchmark/README.md's finding 7.
			t.Fatalf("TCP rank %d: churn on a healthy in-process cluster, the run is no reference: %+v", r, st)
		}
	}
	return results, snaps
}

// TestLoopbackMatchesTCP is the one-mechanism pin: Servers: N on the
// simulated transport runs the very ranks a TCP cluster runs — same
// optimiser, same seeds, same per-rank batch streams — and both exchangers
// add in ascending rank order, ((r0+r1)+r2)+…, so the runs agree byte for
// byte at every rank count: in the final parameters, in every published
// snapshot and in the accuracy/loss series.
func TestLoopbackMatchesTCP(t *testing.T) {
	for _, servers := range []int{2, 3, 4} {
		name := fmt.Sprintf("%d ranks", servers)
		cfg := Config{
			Model: ResNet32, GPUs: 1, LearnersPerGPU: 2, Batch: 8,
			MaxEpochs: 2, Seed: 42, TrainSamples: 128, TestSamples: 64,
			Servers: servers, Interconnect: Ethernet(), PublishEvery: 2,
		}

		tcp, tcpSnaps := trainTCPRanks(t, cfg)
		var snaps []Snapshot
		cfg.OnSnapshot = func(s Snapshot) { snaps = append(snaps, s) }
		loop, err := Train(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		compare := func(what string, got, want []float32) {
			t.Helper()
			if len(got) != len(want) || len(got) == 0 {
				t.Fatalf("%s %s: %d parameters vs %d over TCP", name, what, len(got), len(want))
			}
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s %s param %d: loopback %v vs TCP %v", name, what, i, got[i], want[i])
				}
			}
		}
		compare("final model", loop.Params, tcp[0].Params)
		if len(snaps) == 0 || len(snaps) != len(tcpSnaps) {
			t.Fatalf("%s: %d loopback snapshots vs %d over TCP", name, len(snaps), len(tcpSnaps))
		}
		for k, s := range snaps {
			o := tcpSnaps[k]
			if s.Round != o.Round || s.Iter != o.Iter || s.Epoch != o.Epoch {
				t.Fatalf("%s snapshot %d: (round %d iter %d epoch %d) vs TCP (round %d iter %d epoch %d)",
					name, k, s.Round, s.Iter, s.Epoch, o.Round, o.Iter, o.Epoch)
			}
			compare(fmt.Sprintf("snapshot %d", k), s.Params, o.Params)
		}
		if len(loop.Series) != len(tcp[0].Series) {
			t.Fatalf("%s: %d loopback epochs vs %d over TCP", name, len(loop.Series), len(tcp[0].Series))
		}
		for i, p := range loop.Series {
			if q := tcp[0].Series[i]; p != q {
				t.Fatalf("%s epoch %d: loopback %+v vs TCP %+v", name, i+1, p, q)
			}
		}
	}
}

// TestNodeExchangerRefusalIsNilInterface: a round the node refuses must
// reach the trainer as a nil core.PendingExchange, not as an interface
// holding a nil *transport.PendingRound.
func TestNodeExchangerRefusalIsNilInterface(t *testing.T) {
	peers, lns := tcpPeers(t, 1)
	node, err := transport.Listen(NodeConfig{Peers: peers, Listener: lns[0]})
	if err != nil {
		t.Fatal(err)
	}
	node.Close()
	p, err := nodeExchanger{node}.BeginAllReduce(make([]float32, 4))
	if err == nil || p != nil {
		t.Fatalf("BeginAllReduce on a closed node = (%#v, %v), want (nil, an error)", p, err)
	}
}

// TestTrainTCPValidation pins the config errors of the TCP plane: each is
// Train's own, reported before any set-up. The peer addresses are held by
// the test, so a config that slipped through to the transport would fail
// to listen instead, with a transport error.
func TestTrainTCPValidation(t *testing.T) {
	peers, lns := tcpPeers(t, 2)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	hook := func() *ckpt.Checkpoint { return nil }
	bad := []Config{
		{Model: LeNet, Transport: TransportTCP},                                                     // no peers
		{Model: LeNet, Transport: TransportTCP, Node: NodeConfig{Rank: 2, Peers: peers}},            // rank out of range
		{Model: LeNet, Transport: TransportTCP, Servers: 3, Node: NodeConfig{Peers: peers}},         // servers != peers
		{Model: LeNet, Transport: "carrier-pigeon"},                                                 // unknown transport
		{Model: LeNet, Transport: TransportTCP, Algo: SSGD, Node: NodeConfig{Peers: peers}},         // non-SMA
		{Model: LeNet, Transport: TransportTCP, Scheduler: FCFS, Node: NodeConfig{Peers: peers}},    // FCFS is single-server
		{Model: LeNet, Transport: TransportTCP, Node: NodeConfig{Peers: peers[:1], Snapshot: hook}}, // Train owns Snapshot
		{Model: LeNet, Transport: TransportTCP, Node: NodeConfig{Peers: make([]string, 65)}},        // over the rank bound
	}
	for i, cfg := range bad {
		if _, err := Train(cfg); err == nil || !strings.HasPrefix(err.Error(), "crossbow: ") {
			t.Errorf("config %d: Train(%+v) = %v, want a crossbow config error", i, cfg, err)
		}
	}
}

// nodeReport is the JSON line a helper node process prints on exit.
type nodeReport struct {
	Rank           int     `json:"rank"`
	BestAccuracy   float64 `json:"best_accuracy"`
	WarmStartRound int     `json:"warm_start_round"`
	ParamsHash     uint64  `json:"params_hash"`
	ParamsFinite   bool    `json:"params_finite"`
	Rounds         int64   `json:"rounds"`
	Epochs         int     `json:"epochs"` // epochs this process trained
	RestartRounds  int64   `json:"restart_rounds"`
	SnapFetched    int64   `json:"snapshots_fetched"`
	SnapServed     int64   `json:"snapshots_served"`
	PeerDeaths     int64   `json:"peer_deaths"`
}

// tcpNodeMain is the helper-process entry: one rank of a LeNet TCP cluster,
// configured entirely from the environment, reporting a JSON summary.
func tcpNodeMain() int {
	rank, _ := strconv.Atoi(os.Getenv("CROSSBOW_TCP_RANK"))
	peers := strings.Split(os.Getenv("CROSSBOW_TCP_PEERS"), ",")
	epochs, _ := strconv.Atoi(os.Getenv("CROSSBOW_TCP_EPOCHS"))
	samples, _ := strconv.Atoi(os.Getenv("CROSSBOW_TCP_SAMPLES"))
	res, err := Train(Config{
		Model: LeNet, Transport: TransportTCP,
		GPUs: 1, LearnersPerGPU: 2, Batch: 8,
		MaxEpochs: epochs, Seed: 7,
		TrainSamples: samples, TestSamples: 128,
		Node: NodeConfig{
			Rank: rank, Peers: peers,
			BootstrapWait: 5 * time.Second,
			WarmStartWait: 500 * time.Millisecond,
			// A SIGKILLed process is detected by connection reset, so the
			// heartbeat timeout can stay starvation-proof (see fastNode).
			HeartbeatEvery: 50 * time.Millisecond,
			PeerTimeout:    5 * time.Second,
			DialBackoff:    10 * time.Millisecond,
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "node %d: %v\n", rank, err)
		return 1
	}
	h := fnv.New64a()
	finite := true
	var b [4]byte
	for _, v := range res.Params {
		bits := math.Float32bits(v)
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			finite = false
		}
		b[0], b[1], b[2], b[3] = byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24)
		h.Write(b[:])
	}
	json.NewEncoder(os.Stdout).Encode(nodeReport{
		Rank:           rank,
		BestAccuracy:   res.BestAccuracy,
		WarmStartRound: res.WarmStartRound,
		ParamsHash:     h.Sum64(),
		ParamsFinite:   finite,
		Rounds:         res.TransportStats.Rounds,
		Epochs:         len(res.Series),
		RestartRounds:  res.TransportStats.RestartRounds,
		SnapFetched:    res.TransportStats.SnapshotsFetched,
		SnapServed:     res.TransportStats.SnapshotsServed,
		PeerDeaths:     res.TransportStats.PeerDeaths,
	})
	return 0
}

// spawnNode launches one helper node process.
func spawnNode(t *testing.T, rank int, peers []string, epochs, samples int) (*exec.Cmd, *strings.Builder, *strings.Builder) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"CROSSBOW_TCP_NODE=1",
		"CROSSBOW_TCP_RANK="+strconv.Itoa(rank),
		"CROSSBOW_TCP_PEERS="+strings.Join(peers, ","),
		"CROSSBOW_TCP_EPOCHS="+strconv.Itoa(epochs),
		"CROSSBOW_TCP_SAMPLES="+strconv.Itoa(samples),
	)
	var out, errb strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawn rank %d: %v", rank, err)
	}
	return cmd, &out, &errb
}

// TestTCPKillRejoin is the churn scenario at full process granularity:
// three OS processes train together, one is SIGKILLed mid-run and
// relaunched, and the replacement must seed itself from a live peer's
// checkpoint-v3 snapshot, rejoin the averaging (its first round is
// Restart-flagged, within one τ_global of coming back), and finish with a
// finite, converging cluster average — while the survivors never abort the
// run and still agree bit-for-bit with each other.
func TestTCPKillRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	const servers, epochs, samples = 3, 10, 2048
	addrs, lns := tcpPeers(t, servers)
	for _, ln := range lns {
		ln.Close() // ports picked; the node processes bind them themselves
	}

	type proc struct {
		cmd      *exec.Cmd
		out, err *strings.Builder
	}
	procs := make([]*proc, servers)
	for r := 0; r < servers; r++ {
		cmd, out, errb := spawnNode(t, r, addrs, epochs, samples)
		procs[r] = &proc{cmd: cmd, out: out, err: errb}
	}

	// Let the cluster get through its first rounds (and publish rejoin
	// snapshots), then crash rank 2 the hard way.
	time.Sleep(1500 * time.Millisecond)
	victim := procs[2]
	if err := victim.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill rank 2: %v", err)
	}
	victim.cmd.Wait()
	time.Sleep(300 * time.Millisecond) // survivors detect the death

	// Relaunch the rank: same address, no shared state but the network.
	cmd, out, errb := spawnNode(t, 2, addrs, epochs, samples)
	reborn := &proc{cmd: cmd, out: out, err: errb}

	reports := make(map[int]nodeReport)
	collect := func(p *proc, label string) {
		t.Helper()
		if err := p.cmd.Wait(); err != nil {
			t.Fatalf("%s exited: %v\nstderr: %s", label, err, p.err.String())
		}
		var rep nodeReport
		if err := json.Unmarshal([]byte(strings.TrimSpace(p.out.String())), &rep); err != nil {
			t.Fatalf("%s report %q: %v", label, p.out.String(), err)
		}
		reports[rep.Rank] = rep
	}
	collect(procs[0], "rank 0")
	collect(procs[1], "rank 1")
	collect(reborn, "reborn rank 2")

	for rank, rep := range reports {
		if !rep.ParamsFinite {
			t.Fatalf("rank %d: non-finite cluster average model", rank)
		}
		if rep.BestAccuracy <= 0.12 {
			t.Fatalf("rank %d: accuracy %.3f did not converge above chance", rank, rep.BestAccuracy)
		}
		if rep.Rounds < 1 {
			t.Fatalf("rank %d: no global rounds ran", rank)
		}
	}

	// Survivors weathered the death (and the rejoin) through Restart-
	// flagged rounds, never aborting the whole run, and still agree.
	for _, rank := range []int{0, 1} {
		if reports[rank].PeerDeaths < 1 {
			t.Errorf("rank %d: never observed the crash (deaths %d)", rank, reports[rank].PeerDeaths)
		}
		if reports[rank].RestartRounds < 1 {
			t.Errorf("rank %d: no restart round after churn", rank)
		}
	}
	if reports[0].ParamsHash != reports[1].ParamsHash {
		t.Fatalf("survivors disagree on the final model: %x vs %x",
			reports[0].ParamsHash, reports[1].ParamsHash)
	}

	// The replacement seeded from a peer snapshot (checkpoint v3 carries
	// the round it resumed from) and re-entered the averaging: its first
	// successful round was Restart-flagged — the protocol folds a returned
	// rank back in at the next τ_global boundary.
	reb := reports[2]
	if reb.SnapFetched != 1 || reb.WarmStartRound < 1 {
		t.Fatalf("reborn rank 2 did not warm-start from a peer snapshot: %+v", reb)
	}
	if reb.RestartRounds < 1 {
		t.Fatalf("reborn rank 2 never ran its re-alignment round: %+v", reb)
	}
	if reports[0].SnapServed+reports[1].SnapServed < 1 {
		t.Fatalf("no survivor served the rejoin snapshot: %+v %+v", reports[0], reports[1])
	}

	// It resumed the run where the snapshot left it instead of training
	// every epoch again: its global rounds are at most the rounds the
	// survivors ran after the snapshot's round, plus the one epoch the
	// snapshot was cut in. With τ = τ_global = 1 every iteration is a
	// global round, and an epoch is samples/(b·m) iterations (tcpNodeMain:
	// b = 8, m = 2 on one GPU).
	const roundsPerEpoch = samples / (8 * 2)
	left := min(reports[0].Rounds, reports[1].Rounds) - int64(reb.WarmStartRound)
	t.Logf("reborn rank 2: %d global rounds over %d epochs from round %d; survivors ran %d and %d",
		reb.Rounds, reb.Epochs, reb.WarmStartRound, reports[0].Rounds, reports[1].Rounds)
	if reb.Rounds > left+roundsPerEpoch {
		t.Fatalf("reborn rank 2 ran %d global rounds over %d epochs after warm-starting at round %d; the survivors had %d rounds left (+%d for the epoch the snapshot was cut in)",
			reb.Rounds, reb.Epochs, reb.WarmStartRound, left, roundsPerEpoch)
	}
}
