package transport

import (
	"fmt"
	"testing"
	"time"
)

// TestTinyBufferManySegments is the degenerate-chunking regression: a
// buffer shorter than the rank count (and far shorter than the segment
// count) leaves some chunks empty, and with pipelining every empty segment
// would become a zero-length Data frame. The sum must still be bit-exact,
// and the empty-segment guard must keep the frame volume proportional to
// the NON-empty segments only.
func TestTinyBufferManySegments(t *testing.T) {
	for _, tc := range []struct{ k, n, segs int }{
		{5, 3, 8}, // len(buf) < k: some chunks are empty
		{3, 2, 64},
		{4, 1, 16},
	} {
		t.Run(fmt.Sprintf("k%d_n%d_s%d", tc.k, tc.n, tc.segs), func(t *testing.T) {
			nodes := startCluster(t, tc.k, nil)
			setSegments(nodes, tc.segs)
			bufs, want := rankBufs(tc.k, tc.n)
			for i, r := range runRound(t, nodes, bufs) {
				if r.Aborted || r.Participants != tc.k {
					t.Fatalf("rank %d round = %+v", i, r)
				}
			}
			checkSums(t, bufs, want)

			// Empty segments must not hit the wire: with n << segs almost
			// every segment is empty, so the per-node frame count stays far
			// below segments × collective steps. The bound is generous (it
			// admits every control frame and a test's worth of heartbeats)
			// but collapses if zero-length Data frames were emitted.
			for _, n := range nodes {
				s := n.Stats()
				limit := int64(4*tc.n*tc.k + 200)
				if s.FramesSent > limit {
					t.Fatalf("rank %d sent %d frames for a %d-float buffer (limit %d): empty segments on the wire?",
						n.Rank(), s.FramesSent, tc.n, limit)
				}
			}
		})
	}
}

// TestBeginAllReduceOverlap drives the asynchronous round API: every rank
// launches with BeginAllReduce, "computes" while the exchange goroutine
// runs the collective, then folds with Wait. Sums must be bit-identical
// to the synchronous path's, rounds must stay sequenced, and the overlap
// counters must record the rounds.
func TestBeginAllReduceOverlap(t *testing.T) {
	// The subtest is named for the flat (non-tree) owner collective it runs.
	t.Run("treefalse", func(t *testing.T) {
		const k, n, rounds = 3, 1 << 12, 3
		nodes := startCluster(t, k, nil)

		var lastSeq uint64
		for round := 0; round < rounds; round++ {
			bufs, want := rankBufs(k, n)
			pend := make([]*PendingRound, k)
			for i, node := range nodes {
				p, err := node.BeginAllReduce(bufs[i])
				if err != nil {
					t.Fatalf("rank %d BeginAllReduce: %v", i, err)
				}
				pend[i] = p
			}
			// The caller's compute window: the collective makes progress
			// without any Wait being parked on it.
			time.Sleep(10 * time.Millisecond)
			var seq uint64
			for i, p := range pend {
				r, err := p.Wait()
				if err != nil {
					t.Fatalf("rank %d Wait: %v", i, err)
				}
				if r.Aborted || r.Participants != k {
					t.Fatalf("rank %d async round = %+v", i, r)
				}
				if round > 0 && r.Seq != lastSeq+1 {
					t.Fatalf("rank %d seq %d after %d", i, r.Seq, lastSeq)
				}
				if i > 0 && r.Seq != seq {
					t.Fatalf("rank %d seq %d, rank 0 saw %d", i, r.Seq, seq)
				}
				seq = r.Seq
				if !p.Poll() {
					t.Fatalf("rank %d Poll false after Wait", i)
				}
				// Wait is idempotent: a second call returns the same round.
				if r2, err := p.Wait(); err != nil || r2.Seq != r.Seq {
					t.Fatalf("rank %d re-Wait = %+v, %v", i, r2, err)
				}
			}
			lastSeq = seq
			checkSums(t, bufs, want)
		}
		for _, node := range nodes {
			if s := node.Stats(); s.AsyncRounds != rounds {
				t.Fatalf("rank %d AsyncRounds = %d, want %d", node.Rank(), s.AsyncRounds, rounds)
			}
		}
	})
}

// TestBeginAllReduceClosed pins shutdown behaviour: a Begin after Close
// fails fast with ErrClosed instead of stranding a handle, and a Close
// with a round in flight resolves the pending handle (with either a
// completed round or ErrClosed) rather than deadlocking Wait.
func TestBeginAllReduceClosed(t *testing.T) {
	nodes := startCluster(t, 2, nil)
	nodes[0].Close()
	if _, err := nodes[0].BeginAllReduce(make([]float32, 8)); err != ErrClosed {
		t.Fatalf("Begin after Close: err = %v, want ErrClosed", err)
	}

	// In-flight round on rank 1 while its peer is gone: Close must still
	// resolve the handle promptly.
	p, err := nodes[1].BeginAllReduce(make([]float32, 8))
	if err != nil {
		t.Fatalf("BeginAllReduce: %v", err)
	}
	go nodes[1].Close()
	done := make(chan struct{})
	go func() {
		p.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait hung across Close")
	}
}
