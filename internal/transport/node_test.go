package transport

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"crossbow/internal/ckpt"
)

// testConfig returns fast-failure-detector settings suitable for localhost.
func testConfig(rank int, addrs []string, ln net.Listener) Config {
	return Config{
		Rank:           rank,
		Peers:          addrs,
		Listener:       ln,
		HeartbeatEvery: 20 * time.Millisecond,
		PeerTimeout:    250 * time.Millisecond,
		DialBackoff:    10 * time.Millisecond,
	}
}

// startCluster boots k nodes on pre-bound localhost listeners (so there
// are no port races) and waits for the full mesh.
func startCluster(t testing.TB, k int, mutate func(rank int, cfg *Config)) []*Node {
	t.Helper()
	lns := make([]net.Listener, k)
	addrs := make([]string, k)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*Node, k)
	for i := range nodes {
		cfg := testConfig(i, addrs, lns[i])
		if mutate != nil {
			mutate(i, &cfg)
		}
		n, err := Listen(cfg)
		if err != nil {
			t.Fatalf("Listen rank %d: %v", i, err)
		}
		nodes[i] = n
	}
	for _, n := range nodes {
		if got := n.WaitPeers(5 * time.Second); got != k-1 {
			t.Fatalf("rank %d: WaitPeers = %d, want %d", n.Rank(), got, k-1)
		}
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	return nodes
}

// runRound drives AllReduce concurrently on the given nodes and returns
// each node's Round, in input order.
func runRound(t testing.TB, nodes []*Node, bufs [][]float32) []Round {
	t.Helper()
	rounds := make([]Round, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			rounds[i], errs[i] = n.AllReduce(bufs[i])
		}(i, n)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d AllReduce: %v", nodes[i].Rank(), err)
		}
	}
	return rounds
}

// rankBufs builds per-node vectors with distinguishable values and returns
// them along with the expected element-wise sum.
func rankBufs(k, n int) ([][]float32, []float32) {
	bufs := make([][]float32, k)
	want := make([]float32, n)
	for r := 0; r < k; r++ {
		bufs[r] = make([]float32, n)
		for i := range bufs[r] {
			v := float32(r+1) * float32(i%13+1) * 0.5
			bufs[r][i] = v
			want[i] += v
		}
	}
	return bufs, want
}

func checkSums(t *testing.T, bufs [][]float32, want []float32) {
	t.Helper()
	for r, buf := range bufs {
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("rank %d element %d = %v, want %v", r, i, buf[i], want[i])
			}
		}
	}
}

// TestAllReduceTopologies checks the collective across cluster sizes and
// buffer lengths (including lengths that do not divide evenly into chunks,
// and a buffer shorter than the view): every participant must end with the
// bit-identical element-wise sum.
func TestAllReduceTopologies(t *testing.T) {
	for _, tc := range []struct{ k, n int }{{2, 64}, {3, 97}, {4, 2}, {5, 33}} {
		t.Run(fmt.Sprintf("k%d_n%d", tc.k, tc.n), func(t *testing.T) {
			nodes := startCluster(t, tc.k, nil)
			bufs, want := rankBufs(tc.k, tc.n)
			rounds := runRound(t, nodes, bufs)
			for i, r := range rounds {
				if r.Aborted || r.Participants != tc.k || r.Seq != rounds[0].Seq {
					t.Fatalf("rank %d round = %+v", i, r)
				}
				if r.Restart {
					t.Fatalf("cold-start full-view round flagged restart: %+v", r)
				}
			}
			checkSums(t, bufs, want)

			// Second round: sequence advances, still bit-identical.
			bufs2, want2 := rankBufs(tc.k, tc.n)
			rounds2 := runRound(t, nodes, bufs2)
			for _, r := range rounds2 {
				if r.Seq != rounds[0].Seq+1 || r.Aborted {
					t.Fatalf("second round = %+v (first seq %d)", r, rounds[0].Seq)
				}
			}
			checkSums(t, bufs2, want2)
		})
	}
}

// TestSoloCluster degenerates to a no-op: one member, no peers, instant
// rounds.
func TestSoloCluster(t *testing.T) {
	nodes := startCluster(t, 1, nil)
	buf := []float32{1, 2, 3}
	r, err := nodes[0].AllReduce(buf)
	if err != nil || r.Participants != 1 || r.Aborted {
		t.Fatalf("solo round = %+v, err %v", r, err)
	}
	if buf[0] != 1 || buf[1] != 2 || buf[2] != 3 {
		t.Fatalf("solo buffer mutated: %v", buf)
	}
}

// TestPeerDeathShrinksView kills one node and checks the survivors' next
// round runs with the shrunken view and carries the Restart flag — the
// signal that tells SMA to re-derive the central model from the consensus
// sum after churn.
func TestPeerDeathShrinksView(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	bufs, want := rankBufs(3, 50)
	runRound(t, nodes, bufs)
	checkSums(t, bufs, want)

	nodes[2].Kill()

	survivors := nodes[:2]
	bufs2, want2 := rankBufs(2, 50)
	rounds := runRound(t, survivors, bufs2)
	for i, r := range rounds {
		if r.Aborted || r.Participants != 2 || !r.Restart {
			t.Fatalf("rank %d post-death round = %+v, want 2-member restart", i, r)
		}
	}
	checkSums(t, bufs2, want2)

	s := survivors[0].Stats()
	if s.PeerDeaths < 1 || s.RestartRounds < 1 {
		t.Fatalf("survivor stats missed the churn: %+v", s)
	}
}

// TestWaitPeersSkipsQuarantined: a peer this node has quarantined is not
// live, even while its link's death is still in flight. Counting it let a
// caller that waited for the mesh after a quarantine go on at once and run
// its next round alone, while the peer's Ready arrived after that round
// and waited for one that never came (TestCorruptingPeerQuarantined hung
// that way about once in twenty runs).
func TestWaitPeersSkipsQuarantined(t *testing.T) {
	nodes := startCluster(t, 2, func(rank int, cfg *Config) { cfg.Quarantine = time.Hour })
	nodes[0].quarantinePeer(nodes[0].peers[1], "test") // the link stays up
	if got := nodes[0].WaitPeers(20 * time.Millisecond); got != 0 {
		t.Fatalf("WaitPeers = %d with the only peer quarantined, want 0", got)
	}
}

// TestLeaderFailover kills rank 0 — the round coordinator — and checks
// that rank 1 takes over coordination and the cluster keeps assigning
// monotone round numbers.
func TestLeaderFailover(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	bufs, _ := rankBufs(3, 20)
	first := runRound(t, nodes, bufs)

	nodes[0].Kill()

	survivors := nodes[1:]
	bufs2, want2 := rankBufs(2, 20)
	rounds := runRound(t, survivors, bufs2)
	for i, r := range rounds {
		if r.Aborted || r.Participants != 2 || !r.Restart {
			t.Fatalf("rank %d post-failover round = %+v", i, r)
		}
		if r.Seq <= first[0].Seq {
			t.Fatalf("round sequence went backwards across failover: %d then %d", first[0].Seq, r.Seq)
		}
	}
	checkSums(t, bufs2, want2)
}

// TestRejoin restarts a killed rank as a fresh process on the same address
// and checks it is re-admitted: the first full-view round after rejoin is
// flagged Restart and sums across all three members again.
func TestRejoin(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	addrs := nodes[0].cfg.Peers
	bufs, _ := rankBufs(3, 40)
	runRound(t, nodes, bufs)

	nodes[2].Kill()
	bufs2, _ := rankBufs(2, 40)
	runRound(t, nodes[:2], bufs2)

	// "Restart the process": a brand-new node on rank 2's address.
	reborn, err := Listen(testConfig(2, addrs, nil))
	if err != nil {
		t.Fatalf("rejoin listen: %v", err)
	}
	defer reborn.Close()
	// Mutual visibility before the round: the acceptor side of a handshake
	// attaches slightly before the dialer side, so every member must wait,
	// not just the rejoiner (live training re-runs the barrier every
	// τ_global, but this test runs exactly one round).
	for _, n := range []*Node{reborn, nodes[0], nodes[1]} {
		if got := n.WaitPeers(5 * time.Second); got != 2 {
			t.Fatalf("rank %d sees %d peers after rejoin, want 2", n.Rank(), got)
		}
	}

	all := []*Node{nodes[0], nodes[1], reborn}
	bufs3, want3 := rankBufs(3, 40)
	rounds := runRound(t, all, bufs3)
	for i, r := range rounds {
		if r.Aborted || r.Participants != 3 || !r.Restart {
			t.Fatalf("rank %d rejoin round = %+v, want 3-member restart", i, r)
		}
	}
	checkSums(t, bufs3, want3)

	// Next round is a plain incremental round again.
	bufs4, want4 := rankBufs(3, 40)
	rounds = runRound(t, all, bufs4)
	for i, r := range rounds {
		if r.Aborted || r.Restart {
			t.Fatalf("rank %d post-rejoin round = %+v, want plain round", i, r)
		}
	}
	checkSums(t, bufs4, want4)
}

// TestAbortMidCollective kills a participant after the round barrier, so
// the survivors are already exchanging chunks when it disappears. They
// must abort (not hang), and the following round must complete with the
// shrunken view and the Restart flag.
func TestAbortMidCollective(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	bufs, _ := rankBufs(3, 1<<16)

	var wg sync.WaitGroup
	rounds := make([]Round, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rounds[i], _ = nodes[i].AllReduce(bufs[i])
		}(i)
	}
	// Rank 2 enters the barrier (so the round begins with all three) and
	// dies immediately after.
	go func() {
		nodes[2].AllReduce(bufs[2])
	}()
	time.Sleep(30 * time.Millisecond)
	nodes[2].Kill()
	wg.Wait()

	// Ranks 0 and 1 either aborted the 3-way round or (rarely, if rank 2
	// died before Begin) completed a 2-way one; both are legal. What is
	// mandatory: the next round completes cleanly without rank 2.
	bufs2, want2 := rankBufs(2, 1<<10)
	again := runRound(t, nodes[:2], bufs2)
	for i, r := range again {
		if r.Aborted || r.Participants != 2 {
			t.Fatalf("rank %d recovery round = %+v", i, r)
		}
	}
	checkSums(t, bufs2, want2)
}

// TestSnapshotFetch serves a checkpoint from rank 0 and pulls it from
// rank 2 — the rejoin seeding path. Rank 1 holds no snapshot, proving the
// fetch skips empty peers.
func TestSnapshotFetch(t *testing.T) {
	snap := &ckpt.Checkpoint{
		Model:  "resnet32",
		Epoch:  7,
		Meta:   map[string]string{"source": "test"},
		Params: []float32{1, 2, 3, 4, 5},
	}
	nodes := startCluster(t, 3, func(rank int, cfg *Config) {
		if rank == 0 {
			cfg.Snapshot = func() *ckpt.Checkpoint { return snap }
		}
	})

	got, err := nodes[2].FetchSnapshot(5 * time.Second)
	if err != nil {
		t.Fatalf("FetchSnapshot: %v", err)
	}
	if got == nil {
		t.Fatal("FetchSnapshot returned no snapshot")
	}
	if got.Model != "resnet32" || got.Epoch != 7 || got.Meta["source"] != "test" {
		t.Fatalf("snapshot fields corrupted: %+v", got)
	}
	if len(got.Params) != 5 || got.Params[2] != 3 || got.Params[4] != 5 {
		t.Fatalf("snapshot params corrupted: %+v", got.Params)
	}
	if s := nodes[0].Stats(); s.SnapshotsServed != 1 {
		t.Fatalf("rank 0 served %d snapshots, want 1", s.SnapshotsServed)
	}
	if s := nodes[2].Stats(); s.SnapshotsFetched != 1 {
		t.Fatalf("rank 2 fetched %d snapshots, want 1", s.SnapshotsFetched)
	}

	// No provider anywhere on the queried ranks: a bounded empty answer.
	none, err := nodes[1].FetchSnapshot(300 * time.Millisecond)
	if err != nil {
		t.Fatalf("empty FetchSnapshot: %v", err)
	}
	if none != nil && none.Meta["source"] != "test" {
		t.Fatalf("unexpected snapshot: %+v", none)
	}
}

// TestTransportStats sanity-checks the counters after real traffic.
func TestTransportStats(t *testing.T) {
	nodes := startCluster(t, 2, nil)
	bufs, _ := rankBufs(2, 256)
	runRound(t, nodes, bufs)
	s := nodes[0].Stats()
	if s.Rank != 0 || s.Peers != 2 || s.LivePeers != 1 {
		t.Fatalf("membership stats: %+v", s)
	}
	if s.Rounds != 1 || s.BytesSent == 0 || s.BytesRecv == 0 || s.FramesSent == 0 {
		t.Fatalf("traffic stats: %+v", s)
	}
	if s.RoundMean <= 0 || s.RoundMax < s.RoundMean {
		t.Fatalf("round latency stats: mean %v max %v", s.RoundMean, s.RoundMax)
	}
}

// TestSendTimeoutBeforeFirstByteKeepsPeer pins that a write whose deadline
// passed before any byte went out — a heartbeat that missed its period on a
// starved scheduler — leaves the connection up: no peer death, and the next
// round completes across both ranks.
func TestSendTimeoutBeforeFirstByteKeepsPeer(t *testing.T) {
	nodes := startCluster(t, 2, nil)
	hb := &header{Type: frameHeartbeat, Sender: 0}
	if err := nodes[0].peers[1].send(nodes[0], hb, nil, -time.Millisecond); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("send past its deadline: err = %v, want a deadline timeout", err)
	}
	bufs, want := rankBufs(2, 64)
	for i, r := range runRound(t, nodes, bufs) {
		if r.Aborted || r.Participants != 2 {
			t.Fatalf("rank %d round = %+v", i, r)
		}
	}
	checkSums(t, bufs, want)
	for i, n := range nodes {
		if d := n.Stats().PeerDeaths; d != 0 {
			t.Fatalf("rank %d saw %d peer deaths, want 0", i, d)
		}
	}
}

// TestCloseNoGoroutineLeak boots and tears down clusters repeatedly and
// requires the goroutine count to return to baseline — the CI smoke
// test's no-leak criterion at unit scope.
func TestCloseNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for trial := 0; trial < 3; trial++ {
		nodes := startCluster(t, 3, nil)
		bufs, _ := rankBufs(3, 64)
		runRound(t, nodes, bufs)
		for _, n := range nodes {
			n.Close()
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 64<<10)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d alive, want <= %d\n%s", runtime.NumGoroutine(), before, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}

	// AllReduce after Close fails fast instead of hanging.
	nodes := startCluster(t, 2, nil)
	nodes[0].Close()
	if _, err := nodes[0].AllReduce(make([]float32, 4)); err != ErrClosed {
		t.Fatalf("AllReduce after Close: err = %v, want ErrClosed", err)
	}
}
