package transport

import (
	"errors"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"crossbow/internal/chaos"
)

// peer is the per-rank connection slot. The slot is permanent (it survives
// reconnects); the connection inside it is replaced as the peer comes and
// goes. Liveness and the conn pointer are guarded by the owning Node's mu;
// wmu serialises frame writes on whatever connection is current.
type peer struct {
	rank int
	addr string

	wmu sync.Mutex
	fw  frameWriter // guarded by wmu

	// Guarded by Node.mu.
	conn     net.Conn
	alive    bool
	gen      uint64 // bumped per attach, so stale read loops detach cleanly
	lastSeen time.Time
	// quarUntil bars the peer from reconnecting until this instant: set
	// when it was caught corrupting frames or stalling a round. Both
	// reconnect paths honour it — our dial loop waits it out, and
	// handshakeAccept rejects the peer's own hello.
	quarUntil time.Time

	// data is the mailbox of collective tensor frames from this peer.
	data chan dataMsg
}

// dataMsg is one received collective chunk segment; buf is pool-owned and
// must be returned by the consumer.
type dataMsg struct {
	round uint64
	phase byte
	seg   int
	step  int
	buf   []float32
}

// send writes one frame to the peer's current connection. Write errors
// close the connection (the read loop then reports the peer down), except
// a timeout before the frame's first byte: the stream is still framed, and
// a heartbeat that missed its period on a starved scheduler must not cut a
// healthy peer — silence is the failure detector's call. Callers treat an
// error as "peer unreachable right now". When a chaos injector is
// configured it rules on the frame first — a dropped frame still returns
// nil, because that is what a real network does to the sender.
func (p *peer) send(n *Node, h *header, payload []byte, timeout time.Duration) error {
	n.mu.Lock()
	conn := p.conn
	n.mu.Unlock()
	if conn == nil {
		return errNotConnected
	}
	p.wmu.Lock()
	defer p.wmu.Unlock()
	conn.SetWriteDeadline(time.Now().Add(timeout))
	var fate chaos.Fate
	if n.cfg.Chaos != nil {
		fate = n.cfg.Chaos.Outgoing(n.rank, p.rank, frameClass(h.Type), len(payload))
		if fate.Delay > 0 {
			// Sleeping under wmu is deliberate: a delayed frame holds back
			// everything queued behind it on this link, like a slow wire.
			time.Sleep(fate.Delay)
		}
	}
	var bytes int
	var err error
	switch fate.Op {
	case chaos.Drop:
		return nil
	case chaos.Reset:
		conn.Close()
		return nil
	case chaos.Corrupt:
		bytes, err = writeFrameCorrupt(conn, h, payload, fate.Arg)
	case chaos.Truncate:
		if bytes, err = writeFrameTruncated(conn, h, payload, fate.Arg); err == nil {
			conn.Close()
		}
	case chaos.Dup:
		if bytes, err = p.fw.write(conn, h, payload); err == nil {
			var more int
			more, err = p.fw.write(conn, h, payload)
			bytes += more
		}
	default:
		bytes, err = p.fw.write(conn, h, payload)
	}
	if err != nil {
		if bytes == 0 && errors.Is(err, os.ErrDeadlineExceeded) {
			return err
		}
		conn.Close()
		return err
	}
	n.stats.bytesSent.Add(int64(bytes))
	n.stats.framesSent.Add(1)
	return nil
}

// frameClass maps a frame type to the fault injector's coarse classes.
func frameClass(t byte) chaos.Class {
	switch t {
	case frameData:
		return chaos.Data
	case frameHeartbeat:
		return chaos.Heartbeat
	case frameSnapReq, frameSnapResp:
		return chaos.Snapshot
	default:
		return chaos.Control
	}
}

var errNotConnected = errTransient("transport: peer not connected")

type errTransient string

func (e errTransient) Error() string { return string(e) }

// acceptLoop admits incoming connections: each must open with a Hello from
// a lower-ranked peer (lower ranks dial higher ranks, so ownership of each
// pair's connection is unambiguous after a restart).
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			n.mu.Lock()
			closed := n.closed
			n.mu.Unlock()
			if closed {
				return
			}
			time.Sleep(10 * time.Millisecond)
			continue
		}
		n.wg.Add(1)
		go n.handshakeAccept(conn)
	}
}

func (n *Node) handshakeAccept(conn net.Conn) {
	defer n.wg.Done()
	conn.SetReadDeadline(time.Now().Add(n.cfg.PeerTimeout))
	h, payload, _, err := readFrame(conn, 0, &n.pool)
	if err != nil || h.Type != frameHello {
		conn.Close()
		return
	}
	n.pool.Put(payload)
	rank := int(h.Sender)
	if rank < 0 || rank >= len(n.peers) || rank >= n.rank || n.peers[rank] == nil {
		n.logf("rank %d: rejecting hello from rank %d", n.rank, rank)
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	p := n.peers[rank]
	n.mu.Lock()
	quarantined := time.Now().Before(p.quarUntil)
	n.mu.Unlock()
	if quarantined {
		n.logf("rank %d: rejecting hello from quarantined rank %d", n.rank, rank)
		conn.Close()
		return
	}
	if err := p.sendOn(n, conn, &header{Type: frameHelloAck, Sender: uint32(n.rank)}); err != nil {
		conn.Close()
		return
	}
	n.attach(p, conn)
}

// sendOn writes a frame on an explicit connection (handshake time, before
// the conn is attached to the slot).
func (p *peer) sendOn(n *Node, conn net.Conn, h *header) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	conn.SetWriteDeadline(time.Now().Add(nodeWriteTimeout))
	if n.cfg.Chaos != nil {
		fate := n.cfg.Chaos.Outgoing(n.rank, p.rank, chaos.Control, 0)
		if fate.Delay > 0 {
			time.Sleep(fate.Delay)
		}
		if fate.Op != chaos.Pass {
			// Handshake frames carry no payload to corrupt or truncate;
			// any adverse fate kills the nascent connection, which is how
			// an injected partition keeps the mesh from re-forming.
			conn.Close()
			return errNotConnected
		}
	}
	bytes, err := p.fw.write(conn, h, nil)
	if err != nil {
		return err
	}
	n.stats.bytesSent.Add(int64(bytes))
	n.stats.framesSent.Add(1)
	return nil
}

// dialLoop owns the connection to one higher-ranked peer: dial with
// exponential backoff while it is down, then sleep until the failure
// detector declares it down again. It is the only reconnect path, which is
// what lets a killed-and-restarted process rejoin with no coordinator.
func (n *Node) dialLoop(p *peer) {
	defer n.wg.Done()
	backoff := n.cfg.DialBackoff
	for {
		n.mu.Lock()
		for !n.closed && p.alive {
			n.cond.Wait()
		}
		if n.closed {
			n.mu.Unlock()
			return
		}
		quar := time.Until(p.quarUntil)
		ch := n.notifyCh
		n.mu.Unlock()
		if quar > 0 {
			// The peer is quarantined: sit out the sentence before
			// redialing, but stay interruptible so Close doesn't hang on
			// a sleeping dial loop.
			select {
			case <-ch:
			case <-time.After(quar):
			}
			continue
		}

		conn, err := net.DialTimeout("tcp", p.addr, n.cfg.PeerTimeout)
		if err == nil {
			err = n.handshakeDial(p, conn)
		}
		if err != nil {
			// Jitter desynchronises the reconnect storm when one event
			// (say, a leader crash) disconnects every rank at once.
			time.Sleep(backoff + time.Duration(rand.Int63n(int64(backoff/2)+1)))
			if backoff < 32*n.cfg.DialBackoff {
				backoff *= 2
			}
			continue
		}
		backoff = n.cfg.DialBackoff
	}
}

func (n *Node) handshakeDial(p *peer, conn net.Conn) error {
	if err := p.sendOn(n, conn, &header{Type: frameHello, Sender: uint32(n.rank)}); err != nil {
		conn.Close()
		return err
	}
	conn.SetReadDeadline(time.Now().Add(n.cfg.PeerTimeout))
	h, payload, _, err := readFrame(conn, 0, &n.pool)
	if err != nil || h.Type != frameHelloAck || int(h.Sender) != p.rank {
		conn.Close()
		if err == nil {
			err = errNotConnected
		}
		return err
	}
	n.pool.Put(payload)
	conn.SetReadDeadline(time.Time{})
	n.attach(p, conn)
	return nil
}

// attach installs a fresh connection in the peer's slot, marks the peer
// alive, advances the membership epoch, and starts the read loop.
func (n *Node) attach(p *peer, conn net.Conn) {
	if tcp, ok := conn.(*net.TCPConn); ok {
		tcp.SetNoDelay(true)
	}
	n.mu.Lock()
	if n.closed || time.Now().Before(p.quarUntil) {
		n.mu.Unlock()
		conn.Close()
		return
	}
	if p.conn != nil {
		// A stale connection lingers (e.g. the peer restarted faster than
		// our failure detector fired). Replace it; its read loop exits on
		// the close and sees the bumped generation.
		p.conn.Close()
	}
	p.conn = conn
	// A Ready from the peer's previous connection is stale: it carries an
	// old dirty bit and round, and a Begin issued on it could reach the
	// peer before its fresh Ready does. The peer sends Ready again on this
	// connection (its own attach bumps its epoch, which re-sends from inside
	// the barrier), and this connection's frames are read only after we
	// return.
	delete(n.readySet, p.rank)
	p.gen++
	gen := p.gen
	wasAlive := p.alive
	p.alive = true
	p.lastSeen = time.Now()
	if wasAlive {
		n.stats.reconnects.Add(1)
	}
	n.bumpLocked()
	n.mu.Unlock()
	n.logf("rank %d: peer %d up", n.rank, p.rank)
	n.wg.Add(1)
	go n.readLoop(p, conn, gen)
}

// readLoop drains frames from one connection until it dies. It is the only
// reader, so collective consumers never touch the socket — which is also
// what makes the send-then-receive collectives deadlock-free: bytes are
// always drained off the wire into the mailbox even while the local
// collective is blocked writing. While a round is in flight it reads
// spin-then-park (connReader).
func (n *Node) readLoop(p *peer, conn net.Conn, gen uint64) {
	defer n.wg.Done()
	r := n.connReader(conn)
	var hdr [headerSize]byte
	for {
		h, payload, bytes, err := readFrameInto(r, &hdr, nodeMaxPayload, &n.pool)
		if err != nil {
			if errors.Is(err, errWire) {
				// Definitive corruption (bad checksum, bad framing) — not
				// a cleanly dying conn. The checksum already kept the bytes
				// out of any reduction; quarantining keeps the sick sender
				// from wedging the very next round too.
				n.stats.corruptFrames.Add(1)
				n.quarantinePeer(p, err.Error())
			}
			n.peerDown(p, conn, gen)
			return
		}
		n.stats.bytesRecv.Add(int64(bytes))
		n.stats.framesRecv.Add(1)
		n.mu.Lock()
		if p.gen == gen {
			p.lastSeen = time.Now()
		}
		n.mu.Unlock()
		n.dispatch(p, h, payload)
	}
}

// peerDown records a dead connection. Only the generation that installed
// the connection may declare the peer dead — a newer connection in the
// slot means the peer already recovered.
func (n *Node) peerDown(p *peer, conn net.Conn, gen uint64) {
	conn.Close()
	n.mu.Lock()
	if p.gen != gen {
		n.mu.Unlock()
		return
	}
	p.conn = nil
	if p.alive {
		p.alive = false
		n.stats.peerDeaths.Add(1)
		n.bumpLocked()
		n.mu.Unlock()
		n.logf("rank %d: peer %d down", n.rank, p.rank)
		return
	}
	n.mu.Unlock()
}

// killConn force-closes a peer's current connection (Leave frames and the
// failure detector use it); the read loop then runs the peerDown path.
func (n *Node) killConn(p *peer) {
	n.mu.Lock()
	conn := p.conn
	n.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// quarantinePeer bars p from reconnecting for cfg.Quarantine (extending
// any sentence already running). Both reconnect paths honour the bar.
func (n *Node) quarantinePeer(p *peer, why string) {
	n.mu.Lock()
	until := time.Now().Add(n.cfg.Quarantine)
	if until.After(p.quarUntil) {
		p.quarUntil = until
	}
	n.mu.Unlock()
	n.stats.quarantines.Add(1)
	n.logf("rank %d: quarantining peer %d for %v: %s", n.rank, p.rank, n.cfg.Quarantine, why)
}

// accuse acts on an Abort frame's suspect bitmap: quarantine every named
// rank and cut our own connection to it. Without this fan-out only the
// stall's direct victim would cut its link, the coordinator's view would
// still include the frozen peer, and every re-formed round would wedge on
// it again.
func (n *Node) accuse(suspects uint64) {
	for r, p := range n.peers {
		if p == nil || suspects&(1<<uint(r)) == 0 {
			continue
		}
		n.quarantinePeer(p, "accused of stalling a round")
		n.killConn(p)
	}
}

// heartbeatLoop beacons liveness on every live connection and acts as the
// failure detector: a peer silent for PeerTimeout gets its connection
// closed, which flows through peerDown and bumps the membership epoch.
func (n *Node) heartbeatLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.HeartbeatEvery)
	defer ticker.Stop()
	var live, stale []*peer // reused, so a beat allocates nothing
	for {
		select {
		case <-ticker.C:
		case <-n.exchStop: // closed by shutdown: do not hold it up a period
			return
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			return
		}
		live, stale = live[:0], stale[:0]
		now := time.Now()
		for _, p := range n.peers {
			if p == nil || !p.alive {
				continue
			}
			if now.Sub(p.lastSeen) > n.cfg.PeerTimeout {
				stale = append(stale, p)
			} else {
				live = append(live, p)
			}
		}
		n.mu.Unlock()
		for _, p := range stale {
			n.logf("rank %d: peer %d heartbeat timeout", n.rank, p.rank)
			n.killConn(p)
		}
		hb := &header{Type: frameHeartbeat, Sender: uint32(n.rank)}
		for _, p := range live {
			p.send(n, hb, nil, n.cfg.HeartbeatEvery)
		}
	}
}

// leaderLocked returns the round coordinator: the lowest alive rank.
// Callers hold n.mu.
func (n *Node) leaderLocked() int {
	for r, p := range n.peers {
		if r == n.rank || (p != nil && p.alive) {
			return r
		}
	}
	return n.rank
}

// aliveViewLocked returns the bitmap of self plus all live peers.
func (n *Node) aliveViewLocked() uint64 {
	view := uint64(1) << uint(n.rank)
	for r, p := range n.peers {
		if p != nil && p.alive {
			view |= 1 << uint(r)
		}
	}
	return view
}

// ranksOf expands a view bitmap into a sorted rank slice backed by the
// caller's array (a stack array in AllReduce, so a round allocates no view).
func ranksOf(view uint64, into *[MaxRanks]int) []int {
	ranks := into[:0]
	for r := 0; r < MaxRanks; r++ {
		if view&(1<<uint(r)) != 0 {
			ranks = append(ranks, r)
		}
	}
	return ranks
}
