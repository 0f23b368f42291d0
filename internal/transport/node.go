package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"crossbow/internal/chaos"
	"crossbow/internal/ckpt"
	"crossbow/internal/metrics"
)

// ErrClosed is returned by Node methods after Close or Kill.
var ErrClosed = errors.New("transport: node closed")

// MaxRanks bounds the cluster size: round views travel as 64-bit rank
// bitmaps.
const MaxRanks = 64

// nodeWriteTimeout bounds one frame write; nodeMaxPayload bounds one
// inbound frame's payload (a snapshot answer is the largest).
const (
	nodeWriteTimeout = 10 * time.Second
	nodeMaxPayload   = 256 << 20
)

// Config describes one rank of a static cluster. It is also the public
// crossbow.NodeConfig, so it carries the two waits and the overlap switch
// that crossbow.Train reads around the node; FillDefaults is the one place
// every default and the peer/rank bounds live.
type Config struct {
	// Rank is this node's index into Peers.
	Rank int
	// Peers lists every member's listen address, indexed by rank
	// (Peers[Rank] is this node's own listen address). The list is the
	// static membership universe of 1..MaxRanks; live membership within it
	// is tracked by heartbeats.
	Peers []string
	// Listener optionally supplies a pre-bound listener for Peers[Rank]
	// (tests bind :0 listeners first so addresses are collision-free).
	Listener net.Listener
	// BootstrapWait bounds the wait for the full mesh to come up before
	// training starts (WaitPeers; default 10s). A partial mesh trains with
	// whoever arrived; stragglers join at the next synchronisation round.
	BootstrapWait time.Duration
	// WarmStartWait bounds how long the startup snapshot probe
	// (FetchSnapshot) waits on silent peers (default 2s). On a cold
	// bootstrap every peer answers that it holds no snapshot, so the probe
	// costs one round trip; only peers that have not answered keep it
	// waiting, up to this bound.
	WarmStartWait time.Duration
	// HeartbeatEvery is the liveness beacon period (default 100ms).
	HeartbeatEvery time.Duration
	// PeerTimeout marks a peer dead when no traffic arrived for this long
	// (default 10× HeartbeatEvery).
	PeerTimeout time.Duration
	// DialBackoff is the initial redial delay, doubling per failure up to
	// 32× (default 25ms).
	DialBackoff time.Duration
	// RoundTimeout is the per-collective-step watchdog: a peer that owes
	// this node a chunk and stays silent for this long — heartbeats
	// notwithstanding — is declared stalled, quarantined, and the round is
	// aborted with the suspect named so every participant cuts it too
	// (default 30s). This is the only defence against a peer that is alive
	// to the failure detector but frozen inside the collective.
	RoundTimeout time.Duration
	// Quarantine is how long a peer caught corrupting frames or stalling a
	// round is barred from reconnecting (default PeerTimeout). Without it
	// a sick peer rejoins instantly and wedges the very next round.
	Quarantine time.Duration
	// OverlapGlobal is read by crossbow.Train, not by the node: it launches
	// each global exchange with BeginAllReduce at the τ_global boundary and
	// folds the sum one iteration later (DESIGN.md §15), bit-identical to
	// the synchronous default. It stays only until the overlap either shows
	// its gain on the cluster benchmark or is deleted.
	OverlapGlobal bool
	// Chaos, when set, interposes a fault injector on every outgoing
	// frame of this node (tests and soaks only; it is an in-process hook,
	// so all ranks of a chaos run share one injector in one process).
	Chaos *chaos.Injector
	// Snapshot, if set, serves the node's current model to rejoining
	// peers: it must return a checkpoint of the latest published cluster
	// average model, or nil when none exists yet. A nil is a definite
	// answer: a probing rank that hears it from every peer it asked starts
	// cold at once (FetchSnapshot). Unset, the node answers nil. Called on
	// transport goroutines; must be quick (one model copy). crossbow.Train
	// owns this hook and rejects a caller's.
	Snapshot func() *ckpt.Checkpoint
	// Logf receives debug lines (nil: silent).
	Logf func(format string, args ...any)
}

// FillDefaults checks the peer list and rank and fills every unset
// duration with its default. Listen calls it, and so does crossbow.Train,
// before any set-up; it is idempotent.
func (c *Config) FillDefaults() error {
	if len(c.Peers) < 1 || len(c.Peers) > MaxRanks {
		return fmt.Errorf("transport: need 1..%d peers, got %d", MaxRanks, len(c.Peers))
	}
	if c.Rank < 0 || c.Rank >= len(c.Peers) {
		return fmt.Errorf("transport: rank %d outside peer list of %d", c.Rank, len(c.Peers))
	}
	if c.BootstrapWait <= 0 {
		c.BootstrapWait = 10 * time.Second
	}
	if c.WarmStartWait <= 0 {
		c.WarmStartWait = 2 * time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 100 * time.Millisecond
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 10 * c.HeartbeatEvery
	}
	if c.DialBackoff <= 0 {
		c.DialBackoff = 25 * time.Millisecond
	}
	if c.RoundTimeout <= 0 {
		c.RoundTimeout = 30 * time.Second
	}
	if c.Quarantine <= 0 {
		c.Quarantine = c.PeerTimeout
	}
	return nil
}

// Round reports one completed (or aborted) AllReduce.
type Round struct {
	// Seq is the coordinator-assigned round number, monotone across the
	// cluster's lifetime (it survives coordinator failover and rejoins).
	Seq uint64
	// Participants is the number of ranks whose models were summed.
	Participants int
	// Restart is set when this round's view differs from the previous
	// round's: participants must re-derive shared state from the
	// consensus sum instead of updating it incrementally.
	Restart bool
	// Aborted is set when a membership change interrupted the collective;
	// the buffer contents are then undefined and the caller should skip
	// this exchange (the next successful round carries Restart and
	// re-aligns every participant).
	Aborted bool
	// WaitNs is the time spent at the round barrier (waiting for every
	// live member to arrive); CollectiveNs is the data phase — the
	// quantity the simulated Interconnect.AllReduceUS predicts.
	WaitNs       int64
	CollectiveNs int64
}

// beginMsg is a coordinator's round announcement.
type beginMsg struct {
	round   uint64
	view    uint64 // rank bitmap
	restart bool
}

// Node is one rank of the TCP cluster transport.
type Node struct {
	cfg  Config
	rank int
	ln   net.Listener

	mu       sync.Mutex
	cond     *sync.Cond
	peers    []*peer       // by rank; peers[rank] == nil for self
	epoch    uint64        // membership epoch, bumped on every alive/dead flip
	notifyCh chan struct{} // closed and replaced on every epoch bump or abort
	closed   bool

	// Round barrier state (see collective.go). readySet maps rank →
	// dirty: presence means the rank is at the barrier, true means its
	// previous round aborted and it needs the next round to Restart.
	readySet   map[int]bool
	nextRound  uint64
	lastRound  uint64
	prevView   uint64
	begin      beginMsg // pending announcement; round 0: none
	abortRound uint64   // highest round an Abort frame announced
	// dirty records that this node's last round aborted: its state may
	// have diverged from peers whose copy of the same round completed, so
	// the next round it joins must carry Restart (re-derive shared state
	// from the consensus sum). Announced on Ready frames via flagDirty;
	// cleared only by a completed Restart round.
	dirty bool

	// Asynchronous exchange plumbing (see async.go): BeginAllReduce hands
	// rounds to a dedicated exchange goroutine through exchCh (unbuffered,
	// so a handle is either picked up or refused — never stranded).
	// exchStop closes on shutdown; exchStarted guards the lazy launch.
	exchCh      chan *PendingRound
	exchStop    chan struct{}
	exchStarted bool

	// inRound is raised for the length of every AllReduce (the asynchronous
	// rounds run through it too); while it is non-zero the read loops spin
	// before they park (spinReader).
	inRound atomic.Int32

	// The round watchdog (see recvData): one timer per node, re-armed for
	// every expected segment by the goroutine running the collective — a
	// node runs one round at a time. armedAt tells a genuine expiry from a
	// fire left over from an earlier arming.
	watchdog *time.Timer
	armedAt  time.Time

	// segments, when positive, replaces the size-derived segment count of
	// every transfer (segCount). Only this package's tests set it, on every
	// node of a cluster and between rounds.
	segments int

	// The FetchSnapshot calls in flight; deliverSnapshot credits each
	// SnapResp to the probes awaiting its sender.
	snapMu sync.Mutex
	probes map[*snapProbe]struct{}

	pool  bufPool
	stats nodeStats
	wg    sync.WaitGroup
}

// Listen binds the node's listener and starts the background machinery:
// the accept loop, one dial loop per higher-ranked peer (lower ranks dial
// higher ranks, so each pair has one owner and a restarted process is
// re-dialed automatically), and the heartbeat/failure-detector loop. It
// returns immediately; use WaitPeers to barrier on the mesh coming up.
func Listen(cfg Config) (*Node, error) {
	if err := cfg.FillDefaults(); err != nil {
		return nil, err
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Peers[cfg.Rank])
		if err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", cfg.Peers[cfg.Rank], err)
		}
	}
	n := &Node{
		cfg:       cfg,
		rank:      cfg.Rank,
		ln:        ln,
		readySet:  make(map[int]bool),
		nextRound: 1,
		notifyCh:  make(chan struct{}),
		prevView:  fullView(len(cfg.Peers)),
		exchCh:    make(chan *PendingRound),
		exchStop:  make(chan struct{}),
		watchdog:  time.NewTimer(time.Hour),
		probes:    make(map[*snapProbe]struct{}),
	}
	n.watchdog.Stop()
	n.cond = sync.NewCond(&n.mu)
	for r, addr := range cfg.Peers {
		if r == cfg.Rank {
			n.peers = append(n.peers, nil)
			continue
		}
		n.peers = append(n.peers, &peer{rank: r, addr: addr, data: make(chan dataMsg, 256)})
	}
	n.wg.Add(1)
	go n.acceptLoop()
	for r := cfg.Rank + 1; r < len(cfg.Peers); r++ {
		n.wg.Add(1)
		go n.dialLoop(n.peers[r])
	}
	n.wg.Add(1)
	go n.heartbeatLoop()
	return n, nil
}

// Rank returns this node's rank.
func (n *Node) Rank() int { return n.rank }

// WaitPeers blocks until every static peer is alive or the timeout
// elapses, returning the number of live peers (excluding self). Cold
// bootstrap calls it so training starts with the full mesh; a rejoining
// node sees its peers immediately.
func (n *Node) WaitPeers(timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	n.mu.Lock()
	defer n.mu.Unlock()
	for {
		alive, now := 0, time.Now()
		for _, p := range n.peers {
			// A peer under quarantine is not live even while its link's
			// death is still in flight: the link is being cut and cannot
			// re-form before the sentence lapses.
			if p != nil && p.alive && !now.Before(p.quarUntil) {
				alive++
			}
		}
		if alive == len(n.peers)-1 || n.closed || time.Now().After(deadline) {
			return alive
		}
		ch := n.notifyCh
		n.mu.Unlock()
		select {
		case <-ch:
		case <-time.After(time.Until(deadline)):
		}
		n.mu.Lock()
	}
}

// Close leaves the cluster gracefully: a Leave frame tells every live peer
// not to wait for this rank at the next round barrier, then all
// connections and the listener shut down and background goroutines join.
func (n *Node) Close() error {
	n.shutdown(true)
	return nil
}

// Kill tears the node down abruptly — no Leave, no goodbyes — simulating
// a process crash at the transport layer. Peers discover the death by
// heartbeat timeout. Tests use it to exercise the failure path.
func (n *Node) Kill() {
	n.shutdown(false)
}

func (n *Node) shutdown(graceful bool) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	close(n.exchStop)
	var live []*peer
	for _, p := range n.peers {
		if p != nil && p.alive {
			live = append(live, p)
		}
	}
	n.bumpLocked()
	n.mu.Unlock()

	if graceful {
		for _, p := range live {
			p.send(n, &header{Type: frameLeave, Sender: uint32(n.rank)}, nil, time.Second)
		}
		// Linger until every live peer closes its end in response to the
		// Leave (bounded). Closing our sockets first would race their
		// receive path: a peer's heartbeat arriving after our close draws
		// a TCP reset, and a reset DESTROYS any of our final collective
		// chunks still sitting unread in that peer's receive buffer —
		// aborting its last round even though we sent everything. Keeping
		// the connections open (and their read loops draining) until the
		// peer acts on the Leave makes departure invisible to in-flight
		// rounds.
		deadline := time.Now().Add(time.Second)
		n.mu.Lock()
		for {
			any := false
			for _, p := range live {
				if p.alive {
					any = true
				}
			}
			if !any || time.Now().After(deadline) {
				break
			}
			ch := n.notifyCh
			n.mu.Unlock()
			select {
			case <-ch:
			case <-time.After(time.Until(deadline)):
			}
			n.mu.Lock()
		}
		n.mu.Unlock()
	}
	n.ln.Close()
	n.mu.Lock()
	for _, p := range n.peers {
		if p != nil && p.conn != nil {
			p.conn.Close()
		}
	}
	n.mu.Unlock()
	n.wg.Wait()
	// Release any payloads still queued in the data mailboxes.
	for _, p := range n.peers {
		if p == nil {
			continue
		}
		for drained := false; !drained; {
			select {
			case m := <-p.data:
				n.pool.Put(m.buf)
			default:
				drained = true
			}
		}
	}
}

// bumpLocked advances the membership epoch and wakes every waiter (both
// cond waiters and channel selectors). Callers hold n.mu.
func (n *Node) bumpLocked() {
	n.epoch++
	close(n.notifyCh)
	n.notifyCh = make(chan struct{})
	n.cond.Broadcast()
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// fullView returns the bitmap of all n static ranks.
func fullView(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// Stats snapshots the node's transport counters.
func (n *Node) Stats() metrics.TransportStats {
	s := n.stats.snapshot()
	s.Rank = n.rank
	s.Peers = len(n.cfg.Peers)
	n.mu.Lock()
	for _, p := range n.peers {
		if p != nil && p.alive {
			s.LivePeers++
		}
	}
	s.Epoch = int64(n.epoch)
	n.mu.Unlock()
	return s
}

// dispatch routes one received frame. Called from a peer's read loop;
// payload ownership transfers here (push to a mailbox or return to the
// pool).
func (n *Node) dispatch(p *peer, h header, payload []float32) {
	switch h.Type {
	case frameHeartbeat, frameHelloAck:
		n.pool.Put(payload)
	case frameReady:
		n.pool.Put(payload)
		n.mu.Lock()
		n.readySet[int(h.Sender)] = h.Flags&flagDirty != 0
		if h.Round >= n.nextRound {
			n.nextRound = h.Round + 1
		}
		n.cond.Broadcast()
		n.mu.Unlock()
	case frameBegin:
		n.pool.Put(payload)
		n.mu.Lock()
		if n.begin.round < h.Round {
			n.begin = beginMsg{round: h.Round, view: h.Aux, restart: h.Flags&flagRestart != 0}
		}
		if h.Round >= n.nextRound {
			// Track the cluster's round clock so a coordinator failover
			// never reuses a round number.
			n.nextRound = h.Round + 1
		}
		n.cond.Broadcast()
		n.mu.Unlock()
	case frameAbort:
		n.pool.Put(payload)
		// Aux names the ranks the aborter's watchdog caught stalling. Act
		// on the accusation before waking the local collective: cutting
		// our own conn to the suspect is what shrinks the next view —
		// the aborter alone cutting its link would leave the coordinator
		// still seeing the stalled peer alive, and every later round
		// would wedge on it again.
		if h.Aux != 0 {
			n.accuse(h.Aux)
		}
		n.mu.Lock()
		if h.Round > n.abortRound {
			n.abortRound = h.Round
		}
		close(n.notifyCh)
		n.notifyCh = make(chan struct{})
		n.cond.Broadcast()
		n.mu.Unlock()
	case frameData:
		buf, err := payloadF32(payload, &h)
		if err != nil {
			n.pool.Put(payload)
			n.logf("rank %d: dropping bad data frame from %d: %v", n.rank, h.Sender, err)
			return
		}
		// Blocking push is safe: the mailbox holds far more frames than
		// one round produces, and stale rounds are drained by the next
		// collective.
		p.data <- dataMsg{round: h.Round, phase: dataPhase(h.Aux), seg: dataSeg(h.Aux), step: dataStep(h.Aux), buf: buf}
	case frameSnapReq:
		n.pool.Put(payload)
		n.wg.Add(1)
		go n.serveSnapshot(p)
	case frameSnapResp:
		n.deliverSnapshot(h, payload)
	case frameLeave:
		n.pool.Put(payload)
		n.logf("rank %d: peer %d left", n.rank, p.rank)
		n.killConn(p)
	default:
		n.pool.Put(payload)
		n.logf("rank %d: unknown frame type %d from %d", n.rank, h.Type, h.Sender)
	}
}

// serveSnapshot answers one SnapReq with the configured provider's current
// checkpoint (empty payload when none is available).
func (n *Node) serveSnapshot(p *peer) {
	defer n.wg.Done()
	var payload []byte
	if n.cfg.Snapshot != nil {
		if c := n.cfg.Snapshot(); c != nil {
			var b bytes.Buffer
			if err := ckpt.Write(&b, c); err == nil {
				payload = b.Bytes()
				n.stats.snapshotsServed.Add(1)
			}
		}
	}
	p.send(n, &header{Type: frameSnapResp, Sender: uint32(n.rank)}, payload, nodeWriteTimeout)
}

// snapProbe is one FetchSnapshot call in flight. Its fields are guarded by
// Node.snapMu; bits are ranks.
type snapProbe struct {
	pending  uint64           // asked, not yet heard from
	answered uint64           // answered "none held"
	found    *ckpt.Checkpoint // the first snapshot any rank answered with
	wake     chan struct{}    // signalled on every credited answer
}

// deliverSnapshot credits a SnapResp to every probe that asked its sender
// and has not heard from it; an answer no probe awaits is dropped. An
// unparseable payload leaves the sender pending: it is silence, not a
// definite "none held", which would let the probe declare the cluster cold.
func (n *Node) deliverSnapshot(h header, payload []float32) {
	defer n.pool.Put(payload)
	var c *ckpt.Checkpoint
	if h.Length > 0 {
		var err error
		if c, err = ckpt.Read(bytes.NewReader(f32Bytes(payload)[:h.Length])); err != nil {
			n.logf("rank %d: bad snapshot payload from %d: %v", n.rank, h.Sender, err)
			return
		}
	}
	bit := uint64(1) << h.Sender // zero for a sender outside the rank universe
	n.snapMu.Lock()
	for pr := range n.probes {
		if pr.pending&bit == 0 {
			continue
		}
		pr.pending &^= bit
		if c == nil {
			pr.answered |= bit
		} else if pr.found == nil {
			pr.found = c
		}
		select {
		case pr.wake <- struct{}{}:
		default:
		}
	}
	n.snapMu.Unlock()
}

// FetchSnapshot pulls the cluster's current model from a live peer. It asks
// every live peer at once and the first non-empty checkpoint-v3 snapshot
// wins. Once every asked peer has answered that it holds none, the cluster
// is cold and FetchSnapshot returns (nil, nil) after that one round trip:
// every rank initialises from the shared seed. Only silence keeps it
// waiting — a peer that has not answered, a lost frame, an unparseable
// payload. It re-asks the peers it has not heard from whenever membership
// changes, and returns (nil, nil) when timeout has passed in silence.
func (n *Node) FetchSnapshot(timeout time.Duration) (*ckpt.Checkpoint, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	pr := &snapProbe{wake: make(chan struct{}, 1)}
	n.snapMu.Lock()
	n.probes[pr] = struct{}{}
	n.snapMu.Unlock()
	defer func() {
		n.snapMu.Lock()
		delete(n.probes, pr)
		n.snapMu.Unlock()
	}()
	changed, err := n.askSnapshot(pr)
	for err == nil {
		n.snapMu.Lock()
		found, cold := pr.found, pr.pending == 0 && pr.answered != 0
		n.snapMu.Unlock()
		if found != nil {
			n.stats.snapshotsFetched.Add(1)
			return found, nil
		}
		if cold {
			return nil, nil
		}
		select {
		case <-pr.wake:
		case <-changed:
			changed, err = n.askSnapshot(pr)
		case <-deadline.C:
			return nil, nil
		}
	}
	return nil, err
}

// askSnapshot sends SnapReq to every live peer that has not answered pr —
// a first ask or a re-ask — and returns the channel that closes at the next
// membership change. A peer the request cannot reach stays un-asked, unless
// an earlier ask already awaits it.
func (n *Node) askSnapshot(pr *snapProbe) (<-chan struct{}, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	var live []*peer
	for _, p := range n.peers {
		if p != nil && p.alive {
			live = append(live, p)
		}
	}
	changed := n.notifyCh
	n.mu.Unlock()
	for _, p := range live {
		bit := uint64(1) << uint(p.rank)
		n.snapMu.Lock()
		done, asked := pr.answered&bit != 0, pr.pending&bit != 0
		if !done {
			pr.pending |= bit
		}
		n.snapMu.Unlock()
		if done {
			continue
		}
		if err := p.send(n, &header{Type: frameSnapReq, Sender: uint32(n.rank)}, nil, nodeWriteTimeout); err != nil && !asked {
			n.snapMu.Lock()
			pr.pending &^= bit
			n.snapMu.Unlock()
		}
	}
	return changed, nil
}
