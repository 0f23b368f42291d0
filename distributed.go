package crossbow

import (
	"fmt"
	"sync"

	"crossbow/internal/ckpt"
	"crossbow/internal/core"
	"crossbow/internal/transport"
)

// Transport selects how the cross-server tier of a cluster run exchanges
// the central average model: TransportSimulated (the default) runs every
// server as a rank of this process, exchanging through memory;
// TransportTCP runs one server per process over real sockets.
type Transport = core.Transport

const (
	TransportSimulated = core.TransportSimulated
	TransportTCP       = core.TransportTCP
)

// NodeConfig describes this process's place in a TCP cluster
// (Config.Transport: TransportTCP): its rank and the peer list, the
// bootstrap and warm-start waits, the failure detector and round watchdog,
// and OverlapGlobal. It is the transport's own Config, declared, defaulted
// and validated there once (transport.Config.FillDefaults); Train owns its
// Snapshot hook. A global round this process loses to a fault is skipped,
// not retried, and the next round it joins re-aligns the cluster average
// model (a Restart).
type NodeConfig = transport.Config

// nodeExchanger is the TCP node as the core trainer's network. A
// *transport.Node already is a core.GlobalExchanger (core.ExchangeRound is
// transport.Round); BeginAllReduce hands its *transport.PendingRound out as
// a core.PendingExchange, so the trainer's OverlapGlobal mode can launch
// rounds without blocking.
type nodeExchanger struct{ *transport.Node }

func (e nodeExchanger) BeginAllReduce(buf []float32) (core.PendingExchange, error) {
	p, err := e.Node.BeginAllReduce(buf)
	if err != nil {
		return nil, err // a nil interface, not a typed nil *PendingRound
	}
	return p, nil
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
	return snapshotCheckpoint(h.last)
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
		cfg.PublishEvery = cfg.Tau * cfg.TauGlobal
	}
	cfg.OnSnapshot = holder.onSnapshot

	nodeCfg := cfg.Node
	nodeCfg.Snapshot = holder.checkpoint
	node, err := transport.Listen(nodeCfg)
	if err != nil {
		return nil, err
	}
	defer node.Close()
	node.WaitPeers(cfg.Node.BootstrapWait)

	// Warm start: a rejoining process resumes from the cluster's latest
	// published model; its first (Restart-flagged) round re-aligns every
	// participant bit-exactly. On a cold bootstrap every peer answers that
	// it holds no snapshot, and the rank falls through to the shared-seed
	// w0 one round trip later. The rank resumes its epoch loop after the
	// epochs the snapshot completed, so it trains the rounds the cluster
	// has left, not the whole run again.
	in := core.Inputs{Exchange: nodeExchanger{node}, ShuffleSeed: shuffleSeedFor(cfg.Seed, cfg.Node.Rank)}
	if len(cfg.Node.Peers) > 1 {
		if snap, err := node.FetchSnapshot(cfg.Node.WarmStartWait); err == nil && snap != nil {
			if snap.Model != string(cfg.Model) {
				return nil, fmt.Errorf("crossbow: peer snapshot is for model %q, this run trains %q", snap.Model, cfg.Model)
			}
			in.InitModel, in.StartEpoch = snap.Params, snap.Epoch
			base.WarmStartRound = int(snap.SnapshotRound)
		}
	}

	res := trainRank(cfg, base, in)

	// A graceful leave: peers stop waiting for this rank at the next
	// barrier instead of suffering a heartbeat timeout. Stats are cut
	// before the teardown so LivePeers reflects the training mesh.
	res.TransportStats = node.Stats()
	node.Close()
	return res, nil
}
