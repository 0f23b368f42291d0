package transport

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"crossbow/internal/core"
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

// TestSpinReadOneProcMatchesLoopback runs rounds at GOMAXPROCS 1, where a
// spinning read loop holds the only processor unless it yields: 2-, 3- and
// 4-rank rounds must complete, bit-identical to core.Loopback on the same
// inputs. The inputs are random floats whose sums are not exact, so the
// comparison holds the two exchangers to one reduction order too.
func TestSpinReadOneProcMatchesLoopback(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			nodes := startCluster(t, k, nil)
			lb := core.NewLoopback(k)
			for round := 0; round < 3; round++ {
				bufs := randomBufs(rng, k, 45211)
				ref := make([][]float32, k)
				for r := range bufs {
					ref[r] = append([]float32(nil), bufs[r]...)
				}
				runRound(t, nodes, bufs)
				done := make(chan error, k)
				for r := range ref {
					go func(r int) {
						_, err := lb.Rank(r).AllReduce(ref[r])
						done <- err
					}(r)
				}
				for range ref {
					if err := <-done; err != nil {
						t.Fatalf("loopback: %v", err)
					}
				}
				checkSums(t, bufs, ref[0])
			}
		})
	}
}
