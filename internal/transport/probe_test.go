package transport

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crossbow/internal/chaos"
	"crossbow/internal/ckpt"
)

// waitLive blocks until n sees exactly want live peers.
func waitLive(t *testing.T, n *Node, want int) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		n.mu.Lock()
		live := 0
		for _, p := range n.peers {
			if p != nil && p.alive {
				live++
			}
		}
		changed := n.notifyCh
		n.mu.Unlock()
		if live == want {
			return
		}
		select {
		case <-changed:
		case <-deadline:
			t.Fatalf("rank %d sees %d live peers, want %d", n.Rank(), live, want)
		}
	}
}

// dropAnswers makes in drop the next n SnapResp frames holder sends to
// asker, and returns a channel closed once the last of them is dropped. A
// frame's fate is ruled when it is sent, so the drop is armed when asker's
// request to holder is ruled (the trace runs before the request is
// written, so before holder can answer) and disarmed by the answer's own
// ruling. Frames ruled inside that window are dropped too, which only adds
// silence.
func dropAnswers(in *chaos.Injector, asker, holder, n int) <-chan struct{} {
	var left atomic.Int32
	left.Store(int32(n))
	done := make(chan struct{})
	in.SetTrace(func(e chaos.Event) {
		switch {
		case e.Class != chaos.Snapshot:
		case e.From == asker && e.To == holder && left.Load() > 0:
			in.Tune(chaos.Config{Drop: 1, AllClasses: true})
		case e.From == holder && e.To == asker && e.Fate.Op == chaos.Drop:
			in.Tune(chaos.Config{})
			if left.Add(-1) == 0 {
				close(done)
			}
		}
	})
	return done
}

type probeResult struct {
	c   *ckpt.Checkpoint
	err error
}

// probeAsync runs n.FetchSnapshot on a goroutine of its own.
func probeAsync(n *Node, timeout time.Duration) <-chan probeResult {
	got := make(chan probeResult, 1)
	go func() {
		c, err := n.FetchSnapshot(timeout)
		got <- probeResult{c, err}
	}()
	return got
}

// TestSnapshotProbeColdReturnsAtOnce pins the cold decision: no rank holds
// a snapshot, every asked peer says so, and the probe returns (nil, nil)
// one round trip later instead of when its window ends. Every rank probes
// at once, rank 2 twice, so concurrent probes on one node each hear their
// answers.
func TestSnapshotProbeColdReturnsAtOnce(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	var wg sync.WaitGroup
	for i, n := range []*Node{nodes[0], nodes[1], nodes[2], nodes[2]} {
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			start := time.Now()
			c, err := n.FetchSnapshot(10 * time.Second)
			if took := time.Since(start); c != nil || err != nil || took >= 250*time.Millisecond {
				t.Errorf("probe %d on rank %d: (%v, %v) after %v, want (nil, nil) in < 250ms", i, n.Rank(), c, err, took)
			}
		}(i, n)
	}
	wg.Wait()
}

// TestSnapshotProbeSilenceIsNotCold drops the only holder's answers: rank
// 1 says it holds none, rank 0 says nothing, and silence is not "none" —
// the probe waits out its window. With one answer dropped, the re-ask at
// the next membership change fetches the snapshot; here the change is the
// one a real network makes, the link losing the frame going down and
// coming back.
func TestSnapshotProbeSilenceIsNotCold(t *testing.T) {
	snap := &ckpt.Checkpoint{Model: "lenet", SnapshotRound: 3, Params: []float32{1, 2, 3}}
	inj := chaos.NewInjector(chaos.Config{})
	nodes := startCluster(t, 3, func(rank int, cfg *Config) {
		cfg.Chaos = inj
		if rank == 0 {
			cfg.Snapshot = func() *ckpt.Checkpoint { return snap }
		}
	})

	dropAnswers(inj, 2, 0, 1<<30)
	const window = 300 * time.Millisecond
	start := time.Now()
	c, err := nodes[2].FetchSnapshot(window)
	if took := time.Since(start); c != nil || err != nil || took < window {
		t.Fatalf("probe with the holder silent: (%v, %v) after %v, want (nil, nil) after >= %v", c, err, took, window)
	}

	dropped := dropAnswers(inj, 2, 0, 1)
	start = time.Now()
	got := probeAsync(nodes[2], 10*time.Second)
	<-dropped
	nodes[2].killConn(nodes[2].peers[0])
	select {
	case r := <-got:
		if r.err != nil || r.c == nil || r.c.SnapshotRound != 3 {
			t.Fatalf("probe after a lost answer: (%+v, %v), want the holder's snapshot", r.c, r.err)
		}
		if took := time.Since(start); took >= time.Second {
			t.Fatalf("re-ask took %v, want < 1s", took)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("probe after a lost answer never returned")
	}
}

// TestSnapshotProbeCreditsSender pins that an answer counts for the rank
// that sent it, and only while that rank is awaited. Rank 1 is down, so
// rank 2's probe asks rank 0 alone, and rank 0 holds its answer back.
// Meanwhile a late SnapResp carrying a snapshot arrives from rank 1 (an
// answer to some earlier probe): it is dropped, not taken as rank 0's
// answer. Then rank 0's payload arrives mangled: that is silence, not
// "none held", so the probe keeps waiting and takes rank 0's real answer.
func TestSnapshotProbeCreditsSender(t *testing.T) {
	fresh := &ckpt.Checkpoint{Model: "lenet", SnapshotRound: 9, Params: []float32{4, 5}}
	stale := &ckpt.Checkpoint{Model: "lenet", SnapshotRound: 2, Params: []float32{6, 7}}
	asked := make(chan struct{}, 1)
	release := make(chan struct{})
	nodes := startCluster(t, 3, func(rank int, cfg *Config) {
		if rank == 0 {
			cfg.Snapshot = func() *ckpt.Checkpoint {
				select {
				case asked <- struct{}{}:
				default:
				}
				<-release
				return fresh
			}
		}
	})
	// Registered after startCluster's, so it runs before the nodes close:
	// a failed test must not leave rank 0's answer blocking Close.
	unblock := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unblock)
	nodes[1].Kill()
	waitLive(t, nodes[2], 1)

	got := probeAsync(nodes[2], 10*time.Second)
	<-asked

	answer := func(from int, payload []byte) {
		buf := make([]float32, (len(payload)+3)/4)
		copy(f32Bytes(buf), payload)
		nodes[2].dispatch(nodes[2].peers[from], header{Type: frameSnapResp, Sender: uint32(from), Length: uint32(len(payload))}, buf)
	}
	var b bytes.Buffer
	if err := ckpt.Write(&b, stale); err != nil {
		t.Fatal(err)
	}
	answer(1, b.Bytes())
	answer(0, []byte("not a checkpoint"))
	unblock()

	select {
	case r := <-got:
		if r.err != nil || r.c == nil || r.c.SnapshotRound != fresh.SnapshotRound {
			t.Fatalf("probe = (%+v, %v), want rank 0's snapshot of round %d", r.c, r.err, fresh.SnapshotRound)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("probe never returned")
	}
}
