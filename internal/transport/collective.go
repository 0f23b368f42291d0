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
// in place, and reports the round. The reduction order is fixed by rank,
// so all participants hold bit-identical sums afterwards — which is what
// lets each node apply the cluster-average update independently and stay
// replicated.
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
	start := time.Now()
	bm, err := n.barrier()
	if err != nil {
		return Round{}, err
	}
	view := ranksOf(bm.view)
	r := Round{Seq: bm.round, Participants: len(view), Restart: bm.restart}
	r.WaitNs = time.Since(start).Nanoseconds()
	n.stats.barrierNs.Add(r.WaitNs)
	if bm.restart {
		n.stats.restartRounds.Add(1)
	}
	if len(view) > 1 {
		cstart := time.Now()
		if n.cfg.Tree {
			err = n.treeAllReduce(bm, view, buf)
		} else {
			err = n.ringAllReduce(bm, view, buf)
		}
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
			n.abortRoundPeers(bm, view, suspects)
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
func (n *Node) barrier() (*beginMsg, error) {
	readySentTo := -1
	readyEpoch := uint64(0)
	n.mu.Lock()
	for {
		if n.closed {
			n.mu.Unlock()
			return nil, ErrClosed
		}
		if bm := n.takeBeginLocked(); bm != nil {
			targets := n.beginTargetsLocked(bm)
			n.mu.Unlock()
			n.sendBegin(bm, targets)
			return bm, nil
		}
		leader := n.leaderLocked()
		if leader == n.rank {
			n.readySet[n.rank] = n.dirty
			if n.allReadyLocked() {
				bm := n.issueBeginLocked()
				targets := n.beginTargetsLocked(bm)
				n.mu.Unlock()
				n.sendBegin(bm, targets)
				return bm, nil
			}
		} else if readySentTo != leader || readyEpoch != n.epoch {
			readySentTo, readyEpoch = leader, n.epoch
			p := n.peers[leader]
			h := &header{Type: frameReady, Sender: uint32(n.rank)}
			if n.dirty {
				h.Flags |= flagDirty
			}
			n.mu.Unlock()
			// A failed send means the coordinator is dying; the failure
			// detector will bump the epoch and we re-send to its successor.
			p.send(n, h, nil, n.cfg.WriteTimeout)
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
func (n *Node) takeBeginLocked() *beginMsg {
	bm := n.begin
	if bm == nil {
		return nil
	}
	if bm.round <= n.lastRound {
		n.begin = nil
		return nil
	}
	if bm.view&(1<<uint(n.rank)) == 0 {
		n.begin = nil
		return nil
	}
	n.begin = nil
	n.lastRound = bm.round
	n.prevView = bm.view
	return bm
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
func (n *Node) issueBeginLocked() *beginMsg {
	view := n.aliveViewLocked()
	restart := view != n.prevView
	for r, dirty := range n.readySet {
		if dirty && view&(1<<uint(r)) != 0 {
			restart = true
		}
	}
	bm := &beginMsg{round: n.nextRound, view: view, restart: restart}
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

// beginTargetsLocked lists the peers a coordinator must announce bm to
// (nil when this node is a follower that merely consumed a received
// Begin — only the issuer fans the announcement out).
func (n *Node) beginTargetsLocked(bm *beginMsg) []*peer {
	if n.leaderLocked() != n.rank {
		return nil
	}
	var targets []*peer
	for _, r := range ranksOf(bm.view) {
		if r != n.rank {
			targets = append(targets, n.peers[r])
		}
	}
	return targets
}

func (n *Node) sendBegin(bm *beginMsg, targets []*peer) {
	if len(targets) == 0 {
		return
	}
	h := &header{Type: frameBegin, Sender: uint32(n.rank), Round: bm.round, Aux: bm.view}
	if bm.restart {
		h.Flags |= flagRestart
	}
	for _, p := range targets {
		p.send(n, h, nil, n.cfg.WriteTimeout)
	}
}

// abortRoundPeers tells the rest of the view this node gave up on the
// round, so participants still blocked on our chunks abort too instead of
// waiting for frames that will never come. suspects (a rank bitmap, zero
// when the abort was a plain membership change) names peers our watchdog
// caught stalling; receivers quarantine and cut them on arrival.
func (n *Node) abortRoundPeers(bm *beginMsg, view []int, suspects uint64) {
	h := &header{Type: frameAbort, Sender: uint32(n.rank), Round: bm.round, Aux: suspects}
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
	if err := p.send(n, h, f32Bytes(chunk), n.cfg.WriteTimeout); err != nil {
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
	// is caught just as fast as one that never starts. The stall's direct
	// victim fires first (downstream ranks hear the Abort well before their
	// own timers expire), so the suspect it names is the actual stalled
	// peer, not a healthy one.
	watchdog := time.NewTimer(n.cfg.RoundTimeout)
	defer watchdog.Stop()
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
		case <-watchdog.C:
			n.stats.watchdogFires.Add(1)
			n.quarantinePeer(p, "stalled the round past the watchdog")
			n.killConn(p)
			return nil, errStalled{rank: p.rank}
		}
	}
}

// segBounds returns segment j of the half-open range [lo,hi) split into S
// fixed parts: a pure function of the range, so every participant derives
// the same boundaries and skips the same zero-length segments. Degenerate
// chunks (len(buf) < k makes some ring chunks empty) fall out for free —
// all their segments are empty, so no frames are emitted at all.
func segBounds(lo, hi, j, S int) (int, int) {
	span := hi - lo
	return lo + j*span/S, lo + (j+1)*span/S
}

// ringStep is one pipelined ring step: the send-chunk's segments go out
// interleaved with receive+reduce of the recv-chunk's, so segment j is on
// the wire while segment j−1 is being summed — the socket never idles
// during addInto. Segment boundaries are fixed by the chunk range alone
// and addInto is element-wise, so the per-element reduction order (and
// with it cross-participant bit-identity) is exactly the unsegmented
// ring's for any segment count.
func (n *Node) ringStep(next, prev *peer, round uint64, phase byte, s int, buf []float32, sendLo, sendHi, recvLo, recvHi int, reduce bool) error {
	S := n.cfg.Segments
	for j := 0; j <= S; j++ {
		if j < S {
			lo, hi := segBounds(sendLo, sendHi, j, S)
			if hi > lo {
				if err := n.sendData(next, round, phase, j, s, buf[lo:hi]); err != nil {
					return err
				}
			}
		}
		if j > 0 {
			lo, hi := segBounds(recvLo, recvHi, j-1, S)
			if hi == lo {
				continue
			}
			in, err := n.recvData(prev, round, phase, j-1, s, hi-lo)
			if err != nil {
				return err
			}
			if reduce {
				addInto(buf[lo:hi], in)
			} else {
				copy(buf[lo:hi], in)
			}
			n.pool.Put(in)
		}
	}
	return nil
}

// ringAllReduce runs the bandwidth-optimal ring: k−1 reduce-scatter steps
// in which each node accumulates one chunk, then k−1 all-gather steps that
// circulate the reduced chunks verbatim. Each chunk is summed at exactly
// one node in ring order, so every participant ends with identical bytes.
func (n *Node) ringAllReduce(bm *beginMsg, view []int, buf []float32) error {
	k := len(view)
	me := rankIndex(view, n.rank)
	next := n.peers[view[(me+1)%k]]
	prev := n.peers[view[(me-1+k)%k]]
	bounds := func(c int) (int, int) { return c * len(buf) / k, (c + 1) * len(buf) / k }

	rs := time.Now()
	for s := 0; s < k-1; s++ {
		sendLo, sendHi := bounds((me - s + k) % k)
		recvLo, recvHi := bounds((me - s - 1 + k) % k)
		if err := n.ringStep(next, prev, bm.round, phaseReduceScatter, s, buf, sendLo, sendHi, recvLo, recvHi, true); err != nil {
			return err
		}
	}
	n.stats.reduceScatterNs.Add(time.Since(rs).Nanoseconds())
	ag := time.Now()
	for s := 0; s < k-1; s++ {
		sendLo, sendHi := bounds((me + 1 - s + k) % k)
		recvLo, recvHi := bounds((me - s + k) % k)
		if err := n.ringStep(next, prev, bm.round, phaseAllGather, s, buf, sendLo, sendHi, recvLo, recvHi, false); err != nil {
			return err
		}
	}
	n.stats.allGatherNs.Add(time.Since(ag).Nanoseconds())
	return nil
}

// treeAllReduce runs the latency-optimal binomial tree rooted at the
// lowest view index: ⌈log2 k⌉ reduce steps toward the root, then the
// mirror broadcast of the finished sum. Only the root sums, so the
// broadcast bytes are identical everywhere by construction. Every link
// transfer is segmented: during reduce, segment j+1 is in flight while the
// parent sums segment j; during broadcast, a relay forwards each segment
// to its subtree before the next one arrives, so the sum streams down the
// tree instead of store-and-forwarding whole models.
func (n *Node) treeAllReduce(bm *beginMsg, view []int, buf []float32) error {
	k := len(view)
	me := rankIndex(view, n.rank)
	rs := time.Now()
	for b := 1; b < k; b <<= 1 {
		if me&b != 0 {
			// Non-root: ship the partial sum up, then receive and relay the
			// finished sum.
			if err := n.sendSegments(n.peers[view[me-b]], bm.round, phaseTreeReduce, b, buf); err != nil {
				return err
			}
			n.stats.reduceScatterNs.Add(time.Since(rs).Nanoseconds())
			ag := time.Now()
			err := n.treeRecvRelay(bm, view, me, b, buf)
			n.stats.allGatherNs.Add(time.Since(ag).Nanoseconds())
			return err
		}
		if me+b < k {
			if err := n.recvSegmentsAdd(n.peers[view[me+b]], bm.round, phaseTreeReduce, b, buf); err != nil {
				return err
			}
		}
	}
	n.stats.reduceScatterNs.Add(time.Since(rs).Nanoseconds())
	// Root: stream the finished sum down the same tree.
	span := 1
	for span < k {
		span <<= 1
	}
	ag := time.Now()
	err := n.treeBcastRoot(bm, view, me, span, buf)
	n.stats.allGatherNs.Add(time.Since(ag).Nanoseconds())
	return err
}

// sendSegments ships buf to p segment by segment under one (phase, step)
// address. Back-to-back segment writes keep the link saturated while the
// receiver sums earlier segments.
func (n *Node) sendSegments(p *peer, round uint64, phase byte, step int, buf []float32) error {
	S := n.cfg.Segments
	for j := 0; j < S; j++ {
		lo, hi := segBounds(0, len(buf), j, S)
		if hi == lo {
			continue
		}
		if err := n.sendData(p, round, phase, j, step, buf[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// recvSegmentsAdd accumulates p's segmented transfer into buf: while
// segment j is summed here, segment j+1 is already in flight (the peer's
// read loop drains the socket independently of this call).
func (n *Node) recvSegmentsAdd(p *peer, round uint64, phase byte, step int, buf []float32) error {
	S := n.cfg.Segments
	for j := 0; j < S; j++ {
		lo, hi := segBounds(0, len(buf), j, S)
		if hi == lo {
			continue
		}
		in, err := n.recvData(p, round, phase, j, step, hi-lo)
		if err != nil {
			return err
		}
		addInto(buf[lo:hi], in)
		n.pool.Put(in)
	}
	return nil
}

// treeRecvRelay is the non-root broadcast path: receive the finished sum
// from the parent segment by segment, relaying each segment to our
// broadcast children (offsets below our own parent distance b) before the
// next segment arrives — the pipelined broadcast.
func (n *Node) treeRecvRelay(bm *beginMsg, view []int, me, b int, buf []float32) error {
	parent := n.peers[view[me-b]]
	k := len(view)
	S := n.cfg.Segments
	for j := 0; j < S; j++ {
		lo, hi := segBounds(0, len(buf), j, S)
		if hi == lo {
			continue
		}
		in, err := n.recvData(parent, bm.round, phaseTreeBcast, j, b, hi-lo)
		if err != nil {
			return err
		}
		copy(buf[lo:hi], in)
		n.pool.Put(in)
		for c := b >> 1; c >= 1; c >>= 1 {
			if me+c < k {
				if err := n.sendData(n.peers[view[me+c]], bm.round, phaseTreeBcast, j, c, buf[lo:hi]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// treeBcastRoot streams the finished sum from the root: segment j goes to
// every child before segment j+1, so a child is already relaying j down
// its subtree while the root writes j+1.
func (n *Node) treeBcastRoot(bm *beginMsg, view []int, me, below int, buf []float32) error {
	k := len(view)
	S := n.cfg.Segments
	for j := 0; j < S; j++ {
		lo, hi := segBounds(0, len(buf), j, S)
		if hi == lo {
			continue
		}
		for b := below >> 1; b >= 1; b >>= 1 {
			if me+b < k {
				if err := n.sendData(n.peers[view[me+b]], bm.round, phaseTreeBcast, j, b, buf[lo:hi]); err != nil {
					return err
				}
			}
		}
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

	// Per-phase wall time: barrier wait, reduce-scatter (tree: reduce) and
	// all-gather (tree: broadcast) split of the collective.
	barrierNs       atomic.Int64
	reduceScatterNs atomic.Int64
	allGatherNs     atomic.Int64

	// Overlap accounting for asynchronous rounds: how much of the exchange
	// ran concurrently with computation (hidden) vs stalled the caller in
	// Wait (blocked).
	asyncRounds      atomic.Int64
	overlapHiddenNs  atomic.Int64
	overlapBlockedNs atomic.Int64
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
