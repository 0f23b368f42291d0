package transport

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"crossbow/internal/metrics"
	"crossbow/internal/tensor"
)

// errAborted signals a membership change mid-collective; AllReduce maps it
// to Round.Aborted rather than surfacing it to callers.
var errAborted = errors.New("transport: round aborted by membership change")

// errStalled is the round watchdog's verdict: the named peer owed us a
// chunk and stayed silent for RoundTimeout even though the failure
// detector still considered it alive. AllReduce broadcasts the suspect in
// the Abort frame so every participant cuts it, not just us.
type errStalled struct{ rank int }

func (e errStalled) Error() string {
	return fmt.Sprintf("transport: peer %d stalled the round past the watchdog", e.rank)
}

// AllReduce sums buf element-wise across every live member of the cluster,
// in place, and reports the round. Every element is summed in ascending
// rank order, ((b0+b1)+b2)+…, so all participants hold bit-identical sums
// afterwards — which is what lets each node apply the cluster-average
// update independently and stay replicated — and they are core.Loopback's
// bytes for the same inputs.
//
// The call barriers with the current coordinator (lowest alive rank): each
// member announces Ready, the coordinator waits for every live member and
// answers Begin with the round number and participant view. A view that
// differs from the previous round's sets Round.Restart. If a peer dies
// mid-collective the round aborts (Round.Aborted; buf is then garbage) —
// the caller skips the exchange and the next successful round restarts.
//
// A single-member view degenerates to a no-op round: buf already holds the
// "sum".
func (n *Node) AllReduce(buf []float32) (Round, error) {
	n.inRound.Add(1)
	defer n.inRound.Add(-1)
	start := time.Now()
	bm, err := n.barrier()
	if err != nil {
		return Round{}, err
	}
	var ranks [MaxRanks]int
	view := ranksOf(bm.view, &ranks)
	r := Round{Seq: bm.round, Participants: len(view), Restart: bm.restart}
	r.WaitNs = time.Since(start).Nanoseconds()
	n.stats.barrierNs.Add(r.WaitNs)
	if bm.restart {
		n.stats.restartRounds.Add(1)
	}
	if len(view) > 1 {
		cstart := time.Now()
		err = n.allReduce(bm.round, view, buf)
		r.CollectiveNs = time.Since(cstart).Nanoseconds()
		if err != nil {
			if errors.Is(err, ErrClosed) {
				return Round{}, ErrClosed
			}
			var stall errStalled
			var suspects uint64
			if errors.As(err, &stall) {
				suspects = 1 << uint(stall.rank)
			}
			n.abortRoundPeers(bm.round, view, suspects)
			n.stats.aborts.Add(1)
			r.Aborted = true
			// An aborted round may have completed on some peers: our state
			// can diverge from theirs, so the next round we join must be a
			// Restart (the dirty bit rides our next Ready frame).
			n.mu.Lock()
			n.dirty = true
			n.mu.Unlock()
			n.logf("rank %d: round %d aborted: %v", n.rank, bm.round, err)
			return r, nil
		}
	}
	if bm.restart {
		// A completed Restart round re-derives all shared state; any
		// abort-induced divergence is healed.
		n.mu.Lock()
		n.dirty = false
		n.mu.Unlock()
	}
	n.stats.rounds.Add(1)
	n.stats.collectiveNs.Add(r.CollectiveNs)
	n.stats.roundLat.Record(time.Since(start))
	return r, nil
}

// barrier runs the Ready/Begin handshake and returns the Begin this node
// must act on. Followers (re-)send Ready whenever the believed coordinator
// or the membership epoch changes, so coordinator failover mid-barrier
// converges; the coordinator collects Readys from every live member, then
// assigns the round. Errors only on Close.
func (n *Node) barrier() (beginMsg, error) {
	readySentTo := -1
	readyEpoch := uint64(0)
	n.mu.Lock()
	for {
		if n.closed {
			n.mu.Unlock()
			return beginMsg{}, ErrClosed
		}
		if bm, ok := n.takeBeginLocked(); ok {
			n.announceLocked(bm)
			return bm, nil
		}
		leader := n.leaderLocked()
		if leader == n.rank {
			n.readySet[n.rank] = n.dirty
			if n.allReadyLocked() {
				bm := n.issueBeginLocked()
				n.announceLocked(bm)
				return bm, nil
			}
		} else if readySentTo != leader || readyEpoch != n.epoch {
			readySentTo, readyEpoch = leader, n.epoch
			p := n.peers[leader]
			// Round carries the last round this node took, so a coordinator
			// whose clock fell behind ours (we ran solo rounds while cut
			// off) numbers the next round past it — a Begin at or below
			// lastRound would be dropped as stale below, and with our Ready
			// spent the coordinator would wait for us forever.
			h := &header{Type: frameReady, Sender: uint32(n.rank), Round: n.lastRound}
			if n.dirty {
				h.Flags |= flagDirty
			}
			n.mu.Unlock()
			// A failed send means the coordinator is dying; the failure
			// detector will bump the epoch and we re-send to its successor.
			p.send(n, h, nil, nodeWriteTimeout)
			n.mu.Lock()
			continue
		}
		n.cond.Wait()
	}
}

// takeBeginLocked consumes a pending Begin if this node is in its view.
// Begins for rounds already taken, or views excluding this rank, are
// dropped (the latter means the coordinator declared us dead while our
// Ready was in flight; we keep waiting for a view that includes us).
func (n *Node) takeBeginLocked() (beginMsg, bool) {
	bm := n.begin
	if bm.round == 0 {
		return beginMsg{}, false
	}
	n.begin = beginMsg{}
	if bm.round <= n.lastRound || bm.view&(1<<uint(n.rank)) == 0 {
		return beginMsg{}, false
	}
	n.lastRound = bm.round
	n.prevView = bm.view
	return bm, true
}

// allReadyLocked reports whether every live member (including self) has
// announced Ready. Presence in readySet is what counts — the value is the
// member's dirty bit.
func (n *Node) allReadyLocked() bool {
	for r, p := range n.peers {
		alive := r == n.rank || (p != nil && p.alive)
		if _, ready := n.readySet[r]; alive && !ready {
			return false
		}
	}
	return true
}

// issueBeginLocked assigns the next round over the current live view. The
// restart flag is the heart of churn recovery: it is set whenever the view
// differs from the previous round's — or any participant arrived dirty
// (its copy of an earlier round aborted while others may have completed
// it) — telling every participant to re-derive the shared central model
// from the consensus sum instead of updating it incrementally.
func (n *Node) issueBeginLocked() beginMsg {
	view := n.aliveViewLocked()
	restart := view != n.prevView
	for r, dirty := range n.readySet {
		if dirty && view&(1<<uint(r)) != 0 {
			restart = true
		}
	}
	bm := beginMsg{round: n.nextRound, view: view, restart: restart}
	n.nextRound++
	n.lastRound = bm.round
	n.prevView = view
	for r := range n.readySet {
		if view&(1<<uint(r)) != 0 {
			delete(n.readySet, r)
		}
	}
	return bm
}

// announceLocked releases n.mu and, when this node is the coordinator,
// announces bm to every other rank of its view (a follower that merely
// consumed a received Begin sends nothing — only the coordinator that
// assigned the round fans it out). The peer slots are fixed at Listen, so
// the view's bitmap is walked directly, outside the lock.
func (n *Node) announceLocked(bm beginMsg) {
	leader := n.leaderLocked() == n.rank
	n.mu.Unlock()
	if !leader {
		return
	}
	h := &header{Type: frameBegin, Sender: uint32(n.rank), Round: bm.round, Aux: bm.view}
	if bm.restart {
		h.Flags |= flagRestart
	}
	for r, p := range n.peers {
		if p != nil && bm.view&(1<<uint(r)) != 0 {
			p.send(n, h, nil, nodeWriteTimeout)
		}
	}
}

// abortRoundPeers tells the rest of the view this node gave up on the
// round, so participants still blocked on our chunks abort too instead of
// waiting for frames that will never come. suspects (a rank bitmap, zero
// when the abort was a plain membership change) names peers our watchdog
// caught stalling; receivers quarantine and cut them on arrival.
func (n *Node) abortRoundPeers(round uint64, view []int, suspects uint64) {
	h := &header{Type: frameAbort, Sender: uint32(n.rank), Round: round, Aux: suspects}
	for _, r := range view {
		if r == n.rank {
			continue
		}
		p := n.peers[r]
		n.mu.Lock()
		alive := p.alive
		n.mu.Unlock()
		if alive {
			p.send(n, h, nil, time.Second)
		}
	}
}

// sendData ships one collective chunk segment; a write failure aborts the
// round.
func (n *Node) sendData(p *peer, round uint64, phase byte, seg, step int, chunk []float32) error {
	h := &header{Type: frameData, Sender: uint32(n.rank), Round: round, Aux: dataAux(phase, seg, step)}
	if err := p.send(n, h, f32Bytes(chunk), nodeWriteTimeout); err != nil {
		return errAborted
	}
	return nil
}

// recvData waits for the addressed chunk segment from p, dropping stale
// frames from earlier (aborted) rounds. It gives up when p dies, the round
// is aborted by another participant, or the node closes. The returned
// buffer is pool-owned.
func (n *Node) recvData(p *peer, round uint64, phase byte, seg, step int, want int) ([]float32, error) {
	// The watchdog arms once per expected segment. Heartbeats keep a frozen
	// peer alive to the failure detector forever; this timer is what turns
	// "alive but silent inside the collective" into an abort instead of a
	// cluster-wide hang — and arming it per segment means a peer that
	// freezes mid-pipeline (some segments delivered, the rest never coming)
	// is caught just as fast as one that never starts. A rank waits on each
	// peer that owes it a segment directly — an owner on every contributor,
	// every rank on every owner — so the suspect a fire names is the peer
	// it waited on, and every rank the stalled peer starves names it.
	n.armWatchdog()
	// take classifies one mailbox message: stale frames from earlier rounds
	// are dropped (done=false), a mismatched frame means protocol
	// divergence (e.g. the peer is in a different round than we are after
	// an asymmetric view split) and aborts — the next restart round
	// re-aligns everyone.
	take := func(m dataMsg) (buf []float32, done bool, err error) {
		if m.round < round {
			n.pool.Put(m.buf)
			return nil, false, nil
		}
		if m.round != round || m.phase != phase || m.seg != seg || m.step != step || len(m.buf) != want {
			n.pool.Put(m.buf)
			return nil, true, errAborted
		}
		return m.buf, true, nil
	}
	for {
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			return nil, ErrClosed
		}
		if n.abortRound >= round {
			n.mu.Unlock()
			return nil, errAborted
		}
		alive := p.alive
		ch := n.notifyCh
		n.mu.Unlock()
		if !alive {
			// The peer is down — but its read loop dispatched every frame
			// in order before reporting the death, so anything it sent
			// first is already in the mailbox. Drain that before giving
			// up: a node that completes the round and leaves gracefully
			// must not abort it for the participants still receiving.
			select {
			case m := <-p.data:
				if buf, done, err := take(m); done {
					return buf, err
				}
				continue
			default:
				return nil, errAborted
			}
		}
		select {
		case m := <-p.data:
			if buf, done, err := take(m); done {
				return buf, err
			}
		case <-ch:
			// Membership or abort state changed; re-check.
		case fired := <-n.watchdog.C:
			if fired.Sub(n.armedAt) < n.cfg.RoundTimeout {
				continue // left over from an earlier arming
			}
			n.stats.watchdogFires.Add(1)
			n.quarantinePeer(p, "stalled the round past the watchdog")
			n.killConn(p)
			return nil, errStalled{rank: p.rank}
		}
	}
}

// armWatchdog restarts the node's round watchdog for one RoundTimeout:
// stop, drain, reset — so one timer serves every segment of every round.
// Under the pre-1.23 timer semantics go.mod selects, a fire racing the stop
// can still land in the channel after the drain; recvData recognises it by
// its timestamp, which precedes this arming, and ignores it.
func (n *Node) armWatchdog() {
	n.watchdog.Stop()
	select {
	case <-n.watchdog.C:
	default:
	}
	n.armedAt = time.Now()
	n.watchdog.Reset(n.cfg.RoundTimeout)
}

// segMinBytes is the smallest payload a pipeline segment carries: a
// transfer of b bytes goes out as b/segMinBytes segments, at least 1 and
// at most maxSegments. Splitting pays only when one segment's transmission
// outlasts the fixed cost of a frame (a writev, a read-loop wake-up, a
// mailbox hand-off); below that, every extra segment adds a frame's cost to
// the round and hides nothing.
//
// Read off BenchmarkAllReduce on the 2-vCPU reference box: µs per round,
// median of four interleaved passes of 200 rounds (run-to-run spread up to
// ±15 %); a transfer is one chunk, 1/k of the model; derived counts in
// parentheses:
//
//	                    k = 2                        k = 3
//	model    S=1   S=2   S=4  derived     S=1   S=2   S=4  derived
//	176 KiB   168   189   297   177 (1)     456   495   757   412 (1)
//	704 KiB   453   510   480   433 (1)    1251  1378  1483  1235 (1)
//	  2 MiB  1273  1251  1334  1264 (2)    3674  3706  3643  3731 (1)
//	  8 MiB  5377  5349  5462  5515 (4)   16656 16404 17254 16210 (4)
//
// Four segments lose 1.6–1.9× on chunks below 100 KiB; from 1 MiB a chunk
// up no column beats another beyond the spread. k = 4 reads the same. 512
// KiB a segment keeps every chunk below 1 MiB whole and so picks the
// fastest column, within the spread, in every row.
const segMinBytes = 512 << 10

// maxSegments caps the derived segment count: past four segments the
// pipeline's fill and drain are already a small share of a transfer.
const maxSegments = 4

// segCount is the number of pipeline segments of a transfer of span float32
// elements: one per segMinBytes of payload, clamped to [1, maxSegments]
// (a test's Node.segments instead, when set). Sender and receiver derive it
// from the same range, as they derive segBounds, so every rank agrees on it
// without configuration.
func (n *Node) segCount(span int) int {
	if n.segments > 0 {
		return n.segments
	}
	return min(max(span*4/segMinBytes, 1), maxSegments)
}

// segBounds returns segment j of the half-open range [lo,hi) split into S
// fixed parts: a pure function of the range, so every participant derives
// the same boundaries and skips the same zero-length segments. Degenerate
// chunks (len(buf) < k makes some chunks empty) fall out for free — all
// their segments are empty, so no frames are emitted at all.
func segBounds(lo, hi, j, S int) (int, int) {
	span := hi - lo
	return lo + j*span/S, lo + (j+1)*span/S
}

// chunkSeg returns segment j of chunk c when a buffer of size floats is cut
// into k chunks, chunk c being [c·size/k, (c+1)·size/k): a pure function of
// its arguments, so the owner and every contributor of a chunk derive the
// same segments. ok is false past the chunk's segment count and for an
// empty segment (a buffer shorter than the view leaves some chunks empty),
// which never goes on the wire.
func (n *Node) chunkSeg(size, k, c, j int) (lo, hi int, ok bool) {
	clo, chi := c*size/k, (c+1)*size/k
	S := n.segCount(chi - clo)
	if j >= S {
		return 0, 0, false
	}
	lo, hi = segBounds(clo, chi, j, S)
	return lo, hi, hi > lo
}

// allReduce is the cluster's one collective. View index c owns chunk c of
// buf. In the reduce-scatter every rank sends its slice of each other
// chunk to that chunk's owner, and each owner folds the contributions to
// its own chunk in ascending view order (fold); in the all-gather each
// owner sends its finished chunk to every peer. Each rank sends (k−1)/k of
// buf in each phase, the bytes of a ring, in two latency steps instead of
// 2(k−1). Both phases pipeline: segment j goes out before segment j−1 is
// received, so the socket never idles during a fold. A Data frame's step is
// the chunk it carries, so no frame can be taken for another chunk's.
func (n *Node) allReduce(round uint64, view []int, buf []float32) error {
	k := len(view)
	me := rankIndex(view, n.rank)
	// Chunks differ in length by at most one float and segCount grows with
	// length, so the longest chunk's count bounds every chunk's.
	steps := n.segCount((len(buf) + k - 1) / k)
	rs := time.Now()
	for j := 0; j <= steps; j++ {
		for d := 1; d < k; d++ {
			c := (me + d) % k
			if lo, hi, ok := n.chunkSeg(len(buf), k, c, j); ok {
				if err := n.sendData(n.peers[view[c]], round, phaseReduceScatter, j, c, buf[lo:hi]); err != nil {
					return err
				}
			}
		}
		if j == 0 {
			continue
		}
		if lo, hi, ok := n.chunkSeg(len(buf), k, me, j-1); ok {
			if err := n.fold(round, view, me, j-1, buf[lo:hi]); err != nil {
				return err
			}
		}
	}
	n.stats.reduceScatterNs.Add(time.Since(rs).Nanoseconds())
	ag := time.Now()
	for j := 0; j <= steps; j++ {
		if lo, hi, ok := n.chunkSeg(len(buf), k, me, j); ok {
			for d := 1; d < k; d++ {
				if err := n.sendData(n.peers[view[(me+d)%k]], round, phaseAllGather, j, me, buf[lo:hi]); err != nil {
					return err
				}
			}
		}
		for d := 1; d < k && j > 0; d++ {
			c := (me + d) % k
			if lo, hi, ok := n.chunkSeg(len(buf), k, c, j-1); ok {
				in, err := n.recvData(n.peers[view[c]], round, phaseAllGather, j-1, c, hi-lo)
				if err != nil {
					return err
				}
				copy(buf[lo:hi], in)
				n.pool.Put(in)
			}
		}
	}
	n.stats.allGatherNs.Add(time.Since(ag).Nanoseconds())
	return nil
}

// fold sums segment seg of this rank's own chunk, dst, over the view:
// ((b0+b1)+b2)+… in ascending view order, one addInto per contribution —
// core.Loopback's order, so the TCP and in-process exchangers hand out the
// same bytes at any rank count. The first add commutes (b0+b1 and b1+b0
// are the same bits), so owners 0 and 1 fold straight into dst; a later
// owner folds into view[0]'s received segment, adds dst at its turn, and
// copies the sum into dst.
func (n *Node) fold(round uint64, view []int, me, seg int, dst []float32) error {
	acc := dst
	for i, r := range view {
		if i == me {
			if me > 1 {
				addInto(acc, dst)
			}
			continue
		}
		in, err := n.recvData(n.peers[r], round, phaseReduceScatter, seg, me, len(dst))
		if err != nil {
			return err // an aborted round's pooled buffers go to the collector
		}
		if i == 0 && me > 1 {
			acc = in
			continue
		}
		addInto(acc, in)
		n.pool.Put(in)
	}
	if me > 1 {
		copy(dst, acc)
		n.pool.Put(acc)
	}
	return nil
}

func rankIndex(view []int, rank int) int {
	for i, r := range view {
		if r == rank {
			return i
		}
	}
	return -1
}

// addInto accumulates src into dst element-wise: one IEEE add per element
// (tensor.AccumAdd is exact, vectorised or not), so the reduction order —
// which must be identical on every participant — is the order of the calls.
// recvData has already checked len(src) against the segment.
func addInto(dst, src []float32) { tensor.AccumAdd(dst, src) }

// nodeStats is the transport's lock-free counter block.
type nodeStats struct {
	bytesSent, bytesRecv   atomic.Int64
	framesSent, framesRecv atomic.Int64

	rounds, restartRounds atomic.Int64
	aborts                atomic.Int64
	reconnects            atomic.Int64
	peerDeaths            atomic.Int64

	watchdogFires atomic.Int64
	corruptFrames atomic.Int64
	quarantines   atomic.Int64

	snapshotsServed, snapshotsFetched atomic.Int64

	collectiveNs atomic.Int64
	roundLat     metrics.LatencyRecorder

	// Per-phase wall time: barrier wait, reduce-scatter and all-gather split
	// of the collective.
	barrierNs       atomic.Int64
	reduceScatterNs atomic.Int64
	allGatherNs     atomic.Int64

	// Overlap accounting for asynchronous rounds: how much of the exchange
	// ran concurrently with computation (hidden) vs stalled the caller in
	// Wait (blocked).
	asyncRounds      atomic.Int64
	overlapHiddenNs  atomic.Int64
	overlapBlockedNs atomic.Int64

	// spinProbes counts the read loops' empty re-reads (spinReader); the
	// tests check it stays zero outside rounds.
	spinProbes atomic.Int64
}

func (s *nodeStats) snapshot() metrics.TransportStats {
	out := metrics.TransportStats{
		BytesSent:        s.bytesSent.Load(),
		BytesRecv:        s.bytesRecv.Load(),
		FramesSent:       s.framesSent.Load(),
		FramesRecv:       s.framesRecv.Load(),
		Rounds:           s.rounds.Load(),
		RestartRounds:    s.restartRounds.Load(),
		Aborts:           s.aborts.Load(),
		Reconnects:       s.reconnects.Load(),
		PeerDeaths:       s.peerDeaths.Load(),
		WatchdogFires:    s.watchdogFires.Load(),
		CorruptFrames:    s.corruptFrames.Load(),
		Quarantines:      s.quarantines.Load(),
		SnapshotsServed:  s.snapshotsServed.Load(),
		SnapshotsFetched: s.snapshotsFetched.Load(),
		RoundMean:        s.roundLat.Mean(),
		RoundMax:         s.roundLat.Max(),
		BarrierWaitNs:    s.barrierNs.Load(),
		ReduceScatterNs:  s.reduceScatterNs.Load(),
		AllGatherNs:      s.allGatherNs.Load(),
		AsyncRounds:      s.asyncRounds.Load(),
		OverlapHiddenNs:  s.overlapHiddenNs.Load(),
		OverlapBlockedNs: s.overlapBlockedNs.Load(),
	}
	if s.roundLat.Count() > 0 {
		out.RoundP50 = s.roundLat.Quantile(0.50)
		out.RoundP99 = s.roundLat.Quantile(0.99)
		out.CollectiveMean = time.Duration(s.collectiveNs.Load() / s.roundLat.Count())
	}
	return out
}
