package transport

import (
	"testing"
	"time"

	"crossbow/internal/chaos"
	"crossbow/internal/metrics"
)

// TestFrozenPeerWatchdogAborts pins the tentpole failure mode of this
// transport: a peer whose control plane and heartbeats keep flowing but
// whose collective chunks silently stop — a GC pause, a wedged disk, a
// half-dead NIC. The failure detector never fires (the peer IS alive), so
// before the round watchdog existed this test deadlocked: every rank sat
// in recvData forever. Now a rank the stall starves must abort within its
// RoundTimeout, name the suspect in the Abort fan-out so every rank cuts
// and quarantines it, and the survivors' next round must complete as a
// Restart.
//
// Rank 2 is frozen. Each owner waits on every contributor to its chunk, so
// ranks 0 and 1 both wait on rank 2 directly, and either would name it.
// Rank 0 gets the short watchdog and the others a much longer one, so the
// test is deterministic about WHO detects the stall: rank 0 fires, and its
// Abort reaches rank 1 long before rank 1's own timer expires.
func TestFrozenPeerWatchdogAborts(t *testing.T) {
	inj := chaos.NewInjector(chaos.Config{Seed: 1})
	nodes := startCluster(t, 3, func(rank int, cfg *Config) {
		cfg.Chaos = inj
		cfg.Quarantine = 30 * time.Second // keep the frozen rank out for the whole test
		cfg.RoundTimeout = 1200 * time.Millisecond
		if rank == 0 {
			cfg.RoundTimeout = 300 * time.Millisecond
		}
	})

	// A healthy round first: the watchdog must not misfire.
	bufs, want := rankBufs(3, 1<<14)
	for i, r := range runRound(t, nodes, bufs) {
		if r.Aborted {
			t.Fatalf("rank %d healthy round aborted: %+v", i, r)
		}
	}
	checkSums(t, bufs, want)

	inj.Freeze(2)

	// All three enter the round; rank 2's Data frames vanish. Pre-watchdog
	// this hung forever — the test harness timeout below is the pin.
	bufs2, _ := rankBufs(3, 1<<14)
	rounds := make([]Round, 3)
	done := make(chan int, 3)
	for i, n := range nodes {
		go func(i int, n *Node) {
			rounds[i], _ = n.AllReduce(bufs2[i])
			done <- i
		}(i, n)
	}
	deadline := time.After(10 * time.Second)
	for i := 0; i < 3; i++ {
		select {
		case <-done:
		case <-deadline:
			t.Fatal("cluster deadlocked on a frozen peer: watchdog never fired")
		}
	}
	if !rounds[0].Aborted || !rounds[1].Aborted {
		t.Fatalf("victim rounds = %+v, %+v; want both aborted", rounds[0], rounds[1])
	}
	if s := nodes[0].Stats(); s.WatchdogFires < 1 || s.Quarantines < 1 {
		t.Fatalf("rank 0 (direct victim) stats: %+v, want watchdog fire + quarantine", s)
	}
	// Rank 1 never timed out itself — it learned the suspect from rank 0's
	// Abort fan-out and must have cut and quarantined rank 2 on its own.
	if s := awaitQuarantine(nodes[1]); s.WatchdogFires != 0 || s.Quarantines < 1 {
		t.Fatalf("rank 1 (accused) stats: %+v, want 0 fires but >=1 quarantine", s)
	}
	fires := []int64{nodes[0].Stats().WatchdogFires, nodes[1].Stats().WatchdogFires}

	// Recovery: the survivors re-form without rank 2 (it is quarantined, so
	// it cannot wedge the next round) and the first completed round is a
	// Restart — the dirty bit from the abort forces z re-derivation.
	bufs3, want3 := rankBufs(2, 1<<10)
	for i, r := range runRound(t, nodes[:2], bufs3) {
		if r.Aborted || r.Participants != 2 || !r.Restart {
			t.Fatalf("rank %d recovery round = %+v, want 2-member restart", i, r)
		}
	}
	checkSums(t, bufs3, want3)

	// And once the Restart healed the divergence, rounds are plain again.
	bufs4, want4 := rankBufs(2, 1<<10)
	for i, r := range runRound(t, nodes[:2], bufs4) {
		if r.Aborted || r.Restart {
			t.Fatalf("rank %d post-recovery round = %+v, want plain round", i, r)
		}
	}
	checkSums(t, bufs4, want4)

	// The watchdog is one timer per node, re-armed for every segment. The
	// arming left over from the last round expires during the pause, so its
	// fire sits in the timer's channel when the next round arms; it, and any
	// fire racing a re-arm, must never abort a healthy round.
	time.Sleep(400 * time.Millisecond) // > rank 0's RoundTimeout
	for round := 0; round < 3; round++ {
		bufs5, want5 := rankBufs(2, 1<<12)
		for i, r := range runRound(t, nodes[:2], bufs5) {
			if r.Aborted {
				t.Fatalf("rank %d healthy round %d after the abort = %+v", i, round, r)
			}
		}
		checkSums(t, bufs5, want5)
	}
	for i, n := range nodes[:2] {
		if got := n.Stats().WatchdogFires; got != fires[i] {
			t.Fatalf("rank %d watchdog fired %d times in healthy rounds after the abort", i, got-fires[i])
		}
	}
}

// awaitQuarantine returns n's stats once it has quarantined a peer, or after
// five seconds. A rank can end the round before the accusation reaches it:
// the frozen rank itself waits on the accuser, sees the accuser cut its
// connection and fans out an Abort that names no suspect, which may land
// first. The accuser's Abort follows and is acted on all the same.
func awaitQuarantine(n *Node) metrics.TransportStats {
	deadline := time.Now().Add(5 * time.Second)
	s := n.Stats()
	for s.Quarantines < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		s = n.Stats()
	}
	return s
}

// TestFrozenPeerWatchdogAbortsOverlap re-runs the frozen-peer scenario
// through the asynchronous round API with aggressive pipelining: the
// watchdog is armed per segment, so a peer that freezes mid-collective —
// after some segments of a transfer have already arrived — must still
// trip the owner waiting on it within its RoundTimeout (rank 0, the short
// watchdog, as above), fan the abort out, and leave the frozen rank
// quarantined. The launching goroutines
// meanwhile sit in Wait, which must return the aborted round rather than
// hang.
func TestFrozenPeerWatchdogAbortsOverlap(t *testing.T) {
	inj := chaos.NewInjector(chaos.Config{Seed: 5})
	nodes := startCluster(t, 3, func(rank int, cfg *Config) {
		cfg.Chaos = inj
		cfg.Quarantine = 30 * time.Second
		cfg.RoundTimeout = 1200 * time.Millisecond
		if rank == 0 {
			cfg.RoundTimeout = 300 * time.Millisecond
		}
	})
	setSegments(nodes, 8)

	// A healthy overlapped round first: per-segment watchdogs must not
	// misfire while the collective is pipelined.
	bufs, want := rankBufs(3, 1<<14)
	pend := make([]*PendingRound, 3)
	for i, n := range nodes {
		p, err := n.BeginAllReduce(bufs[i])
		if err != nil {
			t.Fatalf("rank %d BeginAllReduce: %v", i, err)
		}
		pend[i] = p
	}
	for i, p := range pend {
		if r, err := p.Wait(); err != nil || r.Aborted {
			t.Fatalf("rank %d healthy overlapped round = %+v, err %v", i, r, err)
		}
	}
	checkSums(t, bufs, want)

	inj.Freeze(2)

	bufs2, _ := rankBufs(3, 1<<14)
	for i, n := range nodes {
		p, err := n.BeginAllReduce(bufs2[i])
		if err != nil {
			t.Fatalf("rank %d BeginAllReduce: %v", i, err)
		}
		pend[i] = p
	}
	rounds := make([]Round, 3)
	done := make(chan int, 3)
	for i, p := range pend {
		go func(i int, p *PendingRound) {
			rounds[i], _ = p.Wait()
			done <- i
		}(i, p)
	}
	deadline := time.After(10 * time.Second)
	for i := 0; i < 3; i++ {
		select {
		case <-done:
		case <-deadline:
			t.Fatal("overlapped round deadlocked on a frozen peer: watchdog never fired")
		}
	}
	if !rounds[0].Aborted || !rounds[1].Aborted {
		t.Fatalf("victim rounds = %+v, %+v; want both aborted", rounds[0], rounds[1])
	}
	if s := nodes[0].Stats(); s.WatchdogFires < 1 || s.Quarantines < 1 {
		t.Fatalf("rank 0 (direct victim) stats: %+v, want watchdog fire + quarantine", s)
	}
	if s := awaitQuarantine(nodes[1]); s.Quarantines < 1 {
		t.Fatalf("rank 1 (accused) stats: %+v, want >=1 quarantine", s)
	}

	// Recovery without the quarantined rank, still through the async API.
	bufs3, want3 := rankBufs(2, 1<<10)
	for i, n := range nodes[:2] {
		p, err := n.BeginAllReduce(bufs3[i])
		if err != nil {
			t.Fatalf("rank %d recovery BeginAllReduce: %v", i, err)
		}
		pend[i] = p
	}
	for i, p := range pend[:2] {
		r, err := p.Wait()
		if err != nil || r.Aborted || r.Participants != 2 || !r.Restart {
			t.Fatalf("rank %d recovery round = %+v, err %v, want 2-member restart", i, r, err)
		}
	}
	checkSums(t, bufs3, want3)
}

// TestCorruptingPeerQuarantined runs a round in which every Data frame is
// bit-flipped on the wire. The CRC must keep the poison out of the sums,
// classify the link as corrupt (errWire), quarantine the sender, and —
// once the fault is tuned away and the quarantine lapses — the pair must
// reconnect and complete a Restart round with correct sums.
func TestCorruptingPeerQuarantined(t *testing.T) {
	inj := chaos.NewInjector(chaos.Config{Seed: 7, Corrupt: 1})
	nodes := startCluster(t, 2, func(rank int, cfg *Config) {
		cfg.Chaos = inj
		cfg.Quarantine = 300 * time.Millisecond
		cfg.RoundTimeout = 5 * time.Second
	})

	bufs, _ := rankBufs(2, 256)
	rounds := make([]Round, 2)
	done := make(chan struct{}, 2)
	for i, n := range nodes {
		go func(i int, n *Node) {
			rounds[i], _ = n.AllReduce(bufs[i])
			done <- struct{}{}
		}(i, n)
	}
	deadline := time.After(10 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-deadline:
			t.Fatal("corrupted round hung")
		}
	}
	if !rounds[0].Aborted && !rounds[1].Aborted {
		t.Fatalf("all-corrupt round completed: %+v, %+v", rounds[0], rounds[1])
	}
	s0, s1 := nodes[0].Stats(), nodes[1].Stats()
	if s0.CorruptFrames+s1.CorruptFrames < 1 {
		t.Fatalf("no corrupt frame detected: %+v / %+v", s0, s1)
	}
	if s0.Quarantines+s1.Quarantines < 1 {
		t.Fatalf("no quarantine issued: %+v / %+v", s0, s1)
	}

	// Fault repaired: rates to zero, quarantine left to expire.
	inj.Tune(chaos.Config{Seed: 7})
	for _, n := range nodes {
		if got := n.WaitPeers(5 * time.Second); got != 1 {
			t.Fatalf("rank %d sees %d peers after quarantine expiry, want 1", n.Rank(), got)
		}
	}
	bufs2, want2 := rankBufs(2, 256)
	for i, r := range runRound(t, nodes, bufs2) {
		if r.Aborted || r.Participants != 2 || !r.Restart {
			t.Fatalf("rank %d post-repair round = %+v, want 2-member restart", i, r)
		}
	}
	checkSums(t, bufs2, want2)
}

// TestPartitionHeals splits {0,1} from {2} — every cross-partition frame,
// heartbeats included, vanishes. The majority side must shrink its view
// and keep completing rounds; the minority degenerates to a solo round.
// After Heal the mesh re-forms and a full-view Restart round sums across
// all three again.
func TestPartitionHeals(t *testing.T) {
	inj := chaos.NewInjector(chaos.Config{Seed: 3})
	nodes := startCluster(t, 3, func(rank int, cfg *Config) {
		cfg.Chaos = inj
	})

	bufs, want := rankBufs(3, 512)
	runRound(t, nodes, bufs)
	checkSums(t, bufs, want)

	inj.Partition([]int{0, 1})

	// Majority side: the barrier stalls until the failure detector expels
	// rank 2 (its heartbeats no longer arrive), then completes a 2-member
	// Restart round.
	bufs2, want2 := rankBufs(2, 512)
	for i, r := range runRound(t, nodes[:2], bufs2) {
		if r.Aborted || r.Participants != 2 || !r.Restart {
			t.Fatalf("rank %d majority round = %+v, want 2-member restart", i, r)
		}
	}
	checkSums(t, bufs2, want2)

	// Minority side: rank 2 alone degenerates to a no-op round.
	solo := []float32{1, 2, 3}
	r, err := nodes[2].AllReduce(solo)
	if err != nil || r.Aborted || r.Participants != 1 {
		t.Fatalf("minority round = %+v, err %v", r, err)
	}

	inj.Heal()
	for _, n := range nodes {
		if got := n.WaitPeers(5 * time.Second); got != 2 {
			t.Fatalf("rank %d sees %d peers after heal, want 2", n.Rank(), got)
		}
	}
	bufs3, want3 := rankBufs(3, 512)
	for i, r := range runRound(t, nodes, bufs3) {
		if r.Aborted || r.Participants != 3 || !r.Restart {
			t.Fatalf("rank %d healed round = %+v, want 3-member restart", i, r)
		}
	}
	checkSums(t, bufs3, want3)

	if inj.Stats().Cut < 1 {
		t.Fatalf("injector cut no frames across the partition: %+v", inj.Stats())
	}
}

// TestRejoinAfterSoloRounds: a rank cut off from the coordinator numbers its
// own solo rounds, so when the link heals its round clock can be ahead of
// the coordinator's. The first joint round must still form. Before Ready
// carried the follower's last round, the coordinator's Begin came in at or
// below it, the follower dropped it as stale and — its Ready already spent
// — sat in the barrier for good while heartbeats kept it alive. The
// follower's first solo round here is one whose Ready reached the
// coordinator before the cut, and the coordinator enters the joint round
// first: it must wait for the Ready sent on the healed connection, not
// issue a Begin on the one left over from before.
func TestRejoinAfterSoloRounds(t *testing.T) {
	inj := chaos.NewInjector(chaos.Config{Seed: 5})
	nodes := startCluster(t, 2, func(rank int, cfg *Config) {
		cfg.Chaos = inj
	})
	bufs, want := rankBufs(2, 256)
	runRound(t, nodes, bufs)
	checkSums(t, bufs, want)

	first := make(chan Round, 1)
	go func() {
		r, _ := nodes[1].AllReduce([]float32{1})
		first <- r
	}()
	for ready := false; !ready; time.Sleep(time.Millisecond) {
		nodes[0].mu.Lock()
		_, ready = nodes[0].readySet[1]
		nodes[0].mu.Unlock()
	}
	inj.Partition([]int{0}) // rank 1 alone on the far side
	// Each side stalls in its barrier until the failure detector expels the
	// other, then runs solo; the follower runs more of them.
	if r := <-first; r.Aborted || r.Participants != 1 {
		t.Fatalf("rank 1 solo round 0 = %+v", r)
	}
	// The coordinator, not at its barrier, keeps rank 1's Ready until its
	// own detector expels rank 1; only then is its next round solo.
	for nodes[0].Stats().LivePeers != 0 {
		time.Sleep(time.Millisecond)
	}
	for i, solos := range []int{1, 4} {
		for s := 0; s < solos; s++ {
			r, err := nodes[i].AllReduce([]float32{1})
			if err != nil || r.Aborted || r.Participants != 1 {
				t.Fatalf("rank %d solo round %d = %+v, err %v", i, s, r, err)
			}
		}
	}

	inj.Heal()
	for _, n := range nodes {
		if got := n.WaitPeers(5 * time.Second); got != 1 {
			t.Fatalf("rank %d sees %d peers after heal, want 1", n.Rank(), got)
		}
	}
	bufs2, want2 := rankBufs(2, 256)
	rounds := make([]Round, 2)
	done := make(chan struct{}, 2)
	for i, n := range nodes {
		go func(i int, n *Node) {
			rounds[i], _ = n.AllReduce(bufs2[i])
			done <- struct{}{}
		}(i, n)
		time.Sleep(50 * time.Millisecond) // the coordinator is at the barrier first
	}
	deadline := time.After(10 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-deadline:
			t.Fatal("first round after the heal never formed: the follower dropped the coordinator's Begin")
		}
	}
	for i, r := range rounds {
		if r.Aborted || r.Participants != 2 || !r.Restart || r.Seq != rounds[0].Seq {
			t.Fatalf("rank %d rejoin round = %+v (rank 0: %+v), want the same 2-member restart", i, r, rounds[0])
		}
	}
	checkSums(t, bufs2, want2)
}
