//go:build unix

package transport

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestSpinReadCloseWithinBudget: Close and Kill must not wait on a read loop
// that is spinning for longer than its budget. The peer is silent (hour-long
// heartbeats), so a spin that ignored its budget would never see data and
// would hold the closing descriptor for good. Whether the shutdown lands
// while the loop is still spinning is up to the scheduler, so the test
// repeats until one does.
func TestSpinReadCloseWithinBudget(t *testing.T) {
	for _, kill := range []bool{false, true} {
		t.Run(fmt.Sprintf("kill%v", kill), func(t *testing.T) {
			for attempt := 1; !shutdownWhileSpinning(t, kill); attempt++ {
				if attempt == 50 {
					t.Fatalf("in %d attempts the shutdown never found the read loop spinning", attempt)
				}
			}
		})
	}
}

// shutdownWhileSpinning sets rank 0 of a fresh pair spinning, shuts it down,
// fails the test unless that returns promptly, and reports whether the read
// loop was still mid-spin when the shutdown began.
func shutdownWhileSpinning(t *testing.T, kill bool) bool {
	nodes := startCluster(t, 2, func(rank int, cfg *Config) {
		cfg.HeartbeatEvery = time.Hour
	})
	n := nodes[0]
	n.inRound.Add(1) // as inside AllReduce: empty reads now spin
	defer n.inRound.Add(-1)
	// One frame wakes rank 0's read loop; its next read finds the socket
	// empty and spins.
	if err := nodes[1].peers[0].send(nodes[1], &header{Type: frameHeartbeat, Sender: 1}, nil, time.Second); err != nil {
		t.Fatalf("send: %v", err)
	}
	for n.stats.spinProbes.Load() == 0 {
		runtime.Gosched()
	}
	midSpin := n.stats.spinProbes.Load() < spinReadProbes
	done := make(chan struct{})
	go func() {
		if kill {
			n.Kill()
		} else {
			n.Close()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("shutdown waited on a spinning read far past its budget")
	}
	return midSpin
}
