package transport

import (
	"testing"
	"time"
)

// TestSpinReadIdleOutsideRounds: the read loops spin only while their node
// is inside a round. Heartbeats keep every read loop waking up, before and
// after real rounds, and not one empty re-read may happen outside a round.
func TestSpinReadIdleOutsideRounds(t *testing.T) {
	nodes := startCluster(t, 2, nil)
	idle := func(when string) {
		t.Helper()
		before := []int64{nodes[0].stats.spinProbes.Load(), nodes[1].stats.spinProbes.Load()}
		start := nodes[0].Stats().FramesRecv
		for nodes[0].Stats().FramesRecv < start+5 { // five heartbeats
			time.Sleep(5 * time.Millisecond)
		}
		for i, n := range nodes {
			if got := n.stats.spinProbes.Load(); got != before[i] {
				t.Fatalf("%s: rank %d read loop probed %d times with no round in flight", when, i, got-before[i])
			}
		}
	}
	idle("before any round")
	bufs, want := rankBufs(2, 1<<12)
	runRound(t, nodes, bufs)
	checkSums(t, bufs, want)
	idle("after a round")
}
