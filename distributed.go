package crossbow

import (
	"fmt"
	"net"
	"sync"
	"time"

	"crossbow/internal/chaos"
	"crossbow/internal/ckpt"
	"crossbow/internal/core"
	"crossbow/internal/transport"
)

// Transport selects how the cross-server tier of a cluster run exchanges
// the central average model.
type Transport string

const (
	// TransportSimulated (the default) runs every server of the cluster as
	// a rank of this process: the ranks train concurrently, each exactly
	// what a TCP node trains (own learners, own batch stream), and all-reduce
	// their reference models through memory — the socket-free, bit-
	// deterministic twin of TransportTCP. Time is simulated: the hardware
	// plane charges the Interconnect cost model for each exchange.
	TransportSimulated Transport = "simulated"
	// TransportTCP runs ONE server per process: this process trains its
	// local learners and all-reduces the server reference model with its
	// peers over real TCP connections (Config.Node describes the mesh).
	// Launch one process per entry of Node.Peers; every process must use
	// the same Config apart from Node.Rank.
	TransportTCP Transport = "tcp"
)

// NodeConfig describes this process's place in a TCP cluster
// (Config.Transport: TransportTCP).
type NodeConfig struct {
	// Rank is this process's index into Peers.
	Rank int
	// Peers lists every member's listen address, indexed by rank
	// (Peers[Rank] is this process's own listen address).
	Peers []string
	// Listener optionally supplies a pre-bound listener for Peers[Rank]
	// (tests bind :0 listeners first so ports are collision-free).
	Listener net.Listener
	// BootstrapWait bounds the wait for the full mesh to come up before
	// training starts (default 10s). A partial mesh trains with whoever
	// arrived; stragglers join at the next synchronisation round.
	BootstrapWait time.Duration
	// WarmStartWait bounds the snapshot probe at startup (default 2s): a
	// rejoining process pulls the latest published cluster model from a
	// live peer and resumes from it; on a cold bootstrap no peer holds a
	// snapshot and every rank initialises from the shared seed.
	WarmStartWait time.Duration
	// HeartbeatEvery / PeerTimeout / DialBackoff tune the failure
	// detector (defaults 100ms / 10× / 25ms; see transport.Config).
	HeartbeatEvery time.Duration
	PeerTimeout    time.Duration
	DialBackoff    time.Duration
	// RoundTimeout is the collective watchdog: a peer that owes this node
	// a chunk and stays silent this long — even with heartbeats flowing —
	// is declared stalled; the round aborts and membership re-forms
	// without it (default 30s; see transport.Config.RoundTimeout).
	RoundTimeout time.Duration
	// Quarantine bars a peer caught corrupting frames or stalling rounds
	// from reconnecting for this long (default PeerTimeout).
	Quarantine time.Duration
	// ExchangeRetries bounds back-to-back retries of a fault-aborted
	// global exchange before the update is skipped until the next
	// τ_global boundary (0 → 2, negative → no retries).
	ExchangeRetries int
	// OverlapGlobal launches each global exchange asynchronously at the
	// τ_global boundary and folds the completed sum in one iteration
	// later, hiding the network round-trip behind computation. The
	// trajectory stays bit-identical to the synchronous default (see
	// core.TrainConfig.OverlapGlobal).
	OverlapGlobal bool
	// Segments is the collectives' pipelining factor: each per-link
	// transfer is split into this many fixed-boundary segments so sends
	// overlap receive+sum (0 → 4; see transport.Config.Segments).
	// Bit-identity across participants holds for any value.
	Segments int
	// Chaos, when set, interposes a deterministic fault injector on every
	// frame this process sends (tests and soaks only).
	Chaos *chaos.Injector
	// Logf receives transport debug lines (nil: silent).
	Logf func(format string, args ...any)
}

// nodeExchanger adapts transport.Node to the core trainer's network
// interface (core redeclares the round report so it never imports the
// transport package). It satisfies core.AsyncGlobalExchanger, so the
// trainer's OverlapGlobal mode can launch rounds without blocking.
type nodeExchanger struct{ n *transport.Node }

func coreRound(r transport.Round) core.ExchangeRound {
	return core.ExchangeRound{
		Seq:          r.Seq,
		Participants: r.Participants,
		Restart:      r.Restart,
		Aborted:      r.Aborted,
	}
}

func (e nodeExchanger) AllReduce(buf []float32) (core.ExchangeRound, error) {
	r, err := e.n.AllReduce(buf)
	if err != nil {
		return core.ExchangeRound{}, err
	}
	return coreRound(r), nil
}

func (e nodeExchanger) BeginAllReduce(buf []float32) (core.PendingExchange, error) {
	p, err := e.n.BeginAllReduce(buf)
	if err != nil {
		return nil, err
	}
	return pendingRound{p}, nil
}

// pendingRound adapts transport.PendingRound to core.PendingExchange.
type pendingRound struct{ p *transport.PendingRound }

func (w pendingRound) Poll() bool { return w.p.Poll() }

func (w pendingRound) Wait() (core.ExchangeRound, error) {
	r, err := w.p.Wait()
	if err != nil {
		return core.ExchangeRound{}, err
	}
	return coreRound(r), nil
}

// snapshotHolder retains the latest published training snapshot and serves
// it to rejoining peers as a checkpoint-v3 document. It chains to the
// user's OnSnapshot callback, so serving rejoin does not displace serving
// predictions.
type snapshotHolder struct {
	mu    sync.Mutex
	last  Snapshot
	valid bool
	next  func(Snapshot)
}

func (h *snapshotHolder) onSnapshot(s Snapshot) {
	h.mu.Lock()
	h.last = s
	h.valid = true
	h.mu.Unlock()
	if h.next != nil {
		h.next(s)
	}
}

// checkpoint converts the held snapshot for the transport's rejoin
// protocol. Snapshot params are immutable after publication, so the slice
// is shared, not copied.
func (h *snapshotHolder) checkpoint() *ckpt.Checkpoint {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.valid {
		return nil
	}
	return &ckpt.Checkpoint{
		Model:         string(h.last.Model),
		Epoch:         h.last.Epoch,
		SnapshotRound: int64(h.last.Round),
		SnapshotIter:  int64(h.last.Iter),
		Params:        h.last.Params,
	}
}

// shuffleSeedFor derives a per-rank input-pipeline seed: every process must
// stream a DIFFERENT batch sequence (they are different servers of one
// cluster), while the model seed stays shared so cold starts boot with a
// replicated w0. Always non-zero, so it overrides the trainer's default.
func shuffleSeedFor(seed uint64, rank int) uint64 {
	s := seed + 21 + 1_000_003*uint64(rank+1)
	if s == 0 {
		s = 1
	}
	return s
}

// validateTCP checks the TCP-plane knobs after fillDefaults.
func (c *Config) validateTCP() error {
	n := len(c.Node.Peers)
	if n < 1 || n > 64 {
		return fmt.Errorf("crossbow: TransportTCP needs 1..64 Node.Peers, got %d", n)
	}
	if c.Node.Rank < 0 || c.Node.Rank >= n {
		return fmt.Errorf("crossbow: Node.Rank %d outside peer list of %d", c.Node.Rank, n)
	}
	if c.Servers != n {
		return fmt.Errorf("crossbow: Servers (%d) must equal len(Node.Peers) (%d) on a TCP run", c.Servers, n)
	}
	if c.Scheduler != Lockstep {
		return fmt.Errorf("crossbow: TransportTCP requires the Lockstep scheduler (got %q)", c.Scheduler)
	}
	return nil
}

// trainNodeTCP is Train's path for Transport: TransportTCP. It runs ONE
// server of the cluster: bring up the transport mesh, warm-start from a
// peer snapshot when one exists (a rejoin), then train this rank with the
// two-level SMA over the network. The returned Result is this process's
// view; the central average model in Params is bit-identical across
// processes that finished the same rounds together. base carries the
// hardware plane: the simulated cluster stays the cost-model oracle,
// published next to the measured transport stats (Result.TransportStats)
// so runs can compare predicted and real exchange costs.
func trainNodeTCP(cfg Config, base Result) (*Result, error) {
	// Snapshots feed two consumers: the user's OnSnapshot and the rejoin
	// protocol (peers seed from the latest published cluster model). With
	// publishing off, default to one snapshot per global round so a
	// rejoining peer always finds a fresh model to resume from.
	holder := &snapshotHolder{next: cfg.OnSnapshot}
	if cfg.PublishEvery <= 0 {
		cfg.PublishEvery = max(1, cfg.Tau) * max(1, cfg.TauGlobal)
	}

	node, err := transport.Listen(transport.Config{
		Rank:           cfg.Node.Rank,
		Peers:          cfg.Node.Peers,
		Listener:       cfg.Node.Listener,
		Tree:           cfg.Interconnect.Tree,
		HeartbeatEvery: cfg.Node.HeartbeatEvery,
		PeerTimeout:    cfg.Node.PeerTimeout,
		DialBackoff:    cfg.Node.DialBackoff,
		RoundTimeout:   cfg.Node.RoundTimeout,
		Quarantine:     cfg.Node.Quarantine,
		Segments:       cfg.Node.Segments,
		Chaos:          cfg.Node.Chaos,
		Snapshot:       holder.checkpoint,
		Logf:           cfg.Node.Logf,
	})
	if err != nil {
		return nil, err
	}
	defer node.Close()

	bootstrap := cfg.Node.BootstrapWait
	if bootstrap <= 0 {
		bootstrap = 10 * time.Second
	}
	node.WaitPeers(bootstrap)

	// Warm start: a rejoining process resumes from the cluster's latest
	// published model; its first (Restart-flagged) round re-aligns every
	// participant bit-exactly. Cold bootstraps find no snapshot and fall
	// through to the shared-seed w0.
	warmWait := cfg.Node.WarmStartWait
	if warmWait <= 0 {
		warmWait = 2 * time.Second
	}
	var initModel []float32
	if len(cfg.Node.Peers) > 1 {
		if snap, err := node.FetchSnapshot(warmWait); err == nil && snap != nil {
			if snap.Model != string(cfg.Model) {
				return nil, fmt.Errorf("crossbow: peer snapshot is for model %q, this run trains %q", snap.Model, cfg.Model)
			}
			initModel = snap.Params
			base.WarmStartRound = int(snap.SnapshotRound)
		}
	}

	res := trainRank(cfg, base, cfg.Node.Rank, nodeExchanger{node}, initModel, holder.onSnapshot)

	// A graceful leave: peers stop waiting for this rank at the next
	// barrier instead of suffering a heartbeat timeout. Stats are cut
	// before the teardown so LivePeers reflects the training mesh.
	res.TransportStats = node.Stats()
	node.Close()
	return res, nil
}
