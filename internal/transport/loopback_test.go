package transport_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"crossbow/internal/core"
	"crossbow/internal/transport"
)

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
			nodes := transport.StartCluster(t, k, nil)
			lb := core.NewLoopback(k)
			for round := 0; round < 3; round++ {
				bufs := transport.RandomBufs(rng, k, 45211)
				ref := make([][]float32, k)
				for r := range bufs {
					ref[r] = append([]float32(nil), bufs[r]...)
				}
				transport.RunRound(t, nodes, bufs)
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
				transport.CheckSums(t, bufs, ref[0])
			}
		})
	}
}
