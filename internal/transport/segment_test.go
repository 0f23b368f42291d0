package transport

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"crossbow/internal/tensor"
)

// setSegments switches every node of a cluster to S pipeline segments (0:
// derived) between rounds. Only the goroutine running a round reads the
// setting, and rounds are started after this returns.
func setSegments(nodes []*Node, S int) {
	for _, n := range nodes {
		n.segments = S
	}
}

// randomBufs fills k vectors of n floats with values whose sums are not
// exact in float32 (mixed magnitudes and signs, full mantissas), so any
// change in the order an element is summed in changes its bits.
func randomBufs(rng *rand.Rand, k, n int) [][]float32 {
	scales := [...]float32{1e-3, 1e-2, 0.1, 1, 10, 100, 1000, -1e-3, -1e-2, -0.1, -1, -10, -100, -1000}
	bufs := make([][]float32, k)
	for r := range bufs {
		bufs[r] = make([]float32, n)
		for i := range bufs[r] {
			bufs[r][i] = rng.Float32() * scales[rng.Intn(len(scales))]
		}
	}
	return bufs
}

// foldAscending is the reference sum of a round: ((b0+b1)+b2)+… over the
// participants' inputs in ascending rank order, one tensor.AccumAdd per
// rank — core.Loopback's order.
func foldAscending(inputs [][]float32) []float32 {
	sum := append([]float32(nil), inputs[0]...)
	for _, b := range inputs[1:] {
		tensor.AccumAdd(sum, b)
	}
	return sum
}

// TestSegmentCountsBitIdentical pins the reduction order: for any view and
// any segment count, forced or derived from the transfer's length, every
// rank ends the round with exactly the bytes of foldAscending over the
// inputs. The inputs are random floats whose sums are not exact, so a
// collective that summed an element in another order — round a ring, in
// arrival order, from the owner's own slice — would show. Lengths include
// ones far below one segment, ones that divide by neither k nor S, and
// chunks on both sides of a segMinBytes multiple, where neighbouring chunks
// derive different counts. The last view has a gap: ranks {0, 2, 3} after
// rank 1 is killed, so view indices and ranks differ.
func TestSegmentCountsBitIdentical(t *testing.T) {
	for _, k := range []int{2, 3, 4, 5} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			checkRankOrder(t, startCluster(t, k, nil), int64(k))
		})
	}
	t.Run("view_0_2_3", func(t *testing.T) {
		nodes := startCluster(t, 4, nil)
		nodes[1].Kill()
		checkRankOrder(t, []*Node{nodes[0], nodes[2], nodes[3]}, 23)
	})
}

// checkRankOrder runs rounds over nodes — the whole view, in ascending rank
// order — at every segment count and holds each rank's bytes to
// foldAscending.
func checkRankOrder(t *testing.T, nodes []*Node, seed int64) {
	k, unit := len(nodes), segMinBytes/4 // floats per derived segment
	rng := rand.New(rand.NewSource(seed))
	for _, n := range []int{1, k + 1, 997, 2*unit*k - 1, 2*unit*k + 1} {
		inputs := randomBufs(rng, k, n)
		want := foldAscending(inputs)
		for _, S := range []int{1, 2, 4, 7, 0} {
			setSegments(nodes, S)
			bufs := make([][]float32, k)
			for r := range bufs {
				bufs[r] = append([]float32(nil), inputs[r]...)
			}
			for i, r := range runRound(t, nodes, bufs) {
				if r.Aborted || r.Participants != k {
					t.Fatalf("n=%d S=%d: rank %d round = %+v", n, S, nodes[i].Rank(), r)
				}
			}
			for r, buf := range bufs {
				for i := range want {
					if math.Float32bits(buf[i]) != math.Float32bits(want[i]) {
						t.Fatalf("n=%d S=%d: rank %d element %d = %v, the ascending fold gives %v", n, S, nodes[r].Rank(), i, buf[i], want[i])
					}
				}
			}
		}
	}
}

// TestSegCountDerived pins the size rule: one segment per segMinBytes of a
// transfer's payload, at least one and at most maxSegments.
func TestSegCountDerived(t *testing.T) {
	unit := segMinBytes / 4
	n := &Node{}
	for _, tc := range []struct{ span, want int }{
		{0, 1}, {1, 1}, {unit, 1}, {2*unit - 1, 1}, {2 * unit, 2}, {3*unit + 5, 3},
		{4 * unit, 4}, {100 * unit, maxSegments},
	} {
		if got := n.segCount(tc.span); got != tc.want {
			t.Errorf("segCount(%d floats) = %d, want %d", tc.span, got, tc.want)
		}
	}
}

// TestAllReduceRoundAllocs pins the allocation-free round: two nodes
// over loopback TCP, the ResNet-32 model size, and the process's malloc
// count over 200 rounds after a warm-up. Both ranks run in this process, so
// the count covers both of them — send and receive paths, barrier, watchdog,
// read loops and the heartbeats that flow meanwhile.
func TestAllReduceRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations would be counted")
	}
	const elems, rounds = 45211, 200
	nodes := startCluster(t, 2, nil)
	bufs := [][]float32{make([]float32, elems), make([]float32, elems)}
	runRounds(t, nodes, bufs, 20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runRounds(t, nodes, bufs, rounds)
	runtime.ReadMemStats(&after)
	perRound := float64(after.Mallocs-before.Mallocs) / rounds
	t.Logf("%.2f allocations per round across both ranks", perRound)
	if perRound > 1 {
		t.Fatalf("%.2f allocations per round across both ranks, want at most 1", perRound)
	}
}

// runRounds drives rounds back to back on every node, each rank on its own
// goroutine as a training rank would, and fails on any error or abort.
func runRounds(t testing.TB, nodes []*Node, bufs [][]float32, rounds int) {
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(n *Node, buf []float32) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if res, err := n.AllReduce(buf); err != nil || res.Aborted {
					t.Errorf("rank %d round = %+v, err %v", n.Rank(), res, err)
					return
				}
			}
		}(n, bufs[i])
	}
	wg.Wait()
}

// BenchmarkAllReduce is the sizing table for segMinBytes: one synchronous
// round across k in-process nodes over loopback TCP, per rank count, model
// size and segment count (S0: derived by segCount). Compare columns with
// -benchtime of a few hundred rounds, interleaving runs.
func BenchmarkAllReduce(b *testing.B) {
	for _, k := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			nodes := startCluster(b, k, nil)
			for _, kib := range []int{176, 704, 2048, 8192} {
				bufs := make([][]float32, k)
				for r := range bufs {
					bufs[r] = make([]float32, kib<<10/4)
				}
				for _, S := range []int{1, 2, 4, 0} {
					b.Run(fmt.Sprintf("%dKiB/S%d", kib, S), func(b *testing.B) {
						setSegments(nodes, S)
						b.SetBytes(int64(kib << 10))
						runRounds(b, nodes, bufs, b.N)
					})
				}
			}
		})
	}
}
