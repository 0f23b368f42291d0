package core

import (
	"fmt"

	"crossbow/internal/tensor"
	"crossbow/internal/transport"
)

// ExchangeRound reports one global all-reduce: its round number, the
// servers summed, and whether the participant view changed (Restart) or the
// collective was cut short (Aborted). It is the transport's own report, so
// a *transport.Node is a GlobalExchanger as it stands.
type ExchangeRound = transport.Round

// GlobalExchanger is the cluster plane's network: it sums a model vector
// element-wise across every live server, in place, returning bit-identical
// bytes on all participants (the collectives reduce in a fixed rank order
// to guarantee exactly that). Two exchangers exist: Loopback between the
// ranks of one process, and *transport.Node over TCP.
type GlobalExchanger interface {
	AllReduce(buf []float32) (ExchangeRound, error)
}

// PendingExchange is an in-flight asynchronous global exchange: Poll
// reports completion without blocking, Wait blocks for the result. The
// buffer handed to BeginAllReduce belongs to the exchanger until Wait
// returns.
type PendingExchange interface {
	Poll() bool
	Wait() (ExchangeRound, error)
}

// AsyncGlobalExchanger is implemented by exchangers that can run the
// all-reduce in the background while the caller keeps computing — the
// transport's non-blocking round API (the root package returns a
// *transport.PendingRound through it). A completed asynchronous round is
// byte-for-byte the synchronous round's result.
type AsyncGlobalExchanger interface {
	GlobalExchanger
	BeginAllReduce(buf []float32) (PendingExchange, error)
}

// ClusterSMAConfig extends SMAConfig with the inter-server tier of the
// cluster plane's two-level averaging schedule. The global tier's constants
// are fixed: α_G is 1/participants of each round and µ_G is Momentum.
type ClusterSMAConfig struct {
	SMAConfig // intra-server tier: LearnRate, Momentum, LocalMomentum, Alpha, Tau (τ_local), StateRanges

	// TauGlobal is the inter-server averaging period in units of
	// intra-server synchronisations: server reference models exchange
	// corrections every TauGlobal-th local synchronisation (0 → 1). Each
	// boundary makes exactly one all-reduce; a round that fails or aborts
	// is skipped, never retried (see DistClusterSMA).
	TauGlobal int
	// OverlapGlobal, with an exchanger that supports AsyncGlobalExchanger,
	// launches the global all-reduce at the τ_global boundary and keeps
	// local iterations running while the sum is in flight; the completed
	// sum is folded in at the next deterministic boundary every rank
	// reaches identically (see DistClusterSMA.Drain). Ignored by
	// exchangers without an asynchronous path (Loopback: its exchange is a
	// memory copy).
	OverlapGlobal bool
}

// DistClusterSMA is the cluster plane's two-level SMA, one server per rank.
// It generalises the hierarchical SMA of §3.3 by one level: this rank's
// learners run flat SMA against their server's reference model every
// τ_local iterations (cheap, intra-server scope), and every τ_global local
// synchronisations the server reference models themselves run an SMA
// exchange against the cluster average model z (expensive, network scope)
// through a GlobalExchanger — the TCP transport between processes, Loopback
// between the ranks of one process. The optimiser is the same over both.
//
// The global tier is Alg 1 lines 8-13 with the servers as the replicas:
// z ← z + Σ_s α_G(ref_s − z) + µ_G(z − z_prev). Each rank holds only its own
// ref, but the all-reduce delivers sum = Σ_s ref_s, and
// Σ_s α_G(ref_s − z) = α_G(sum − n·z), so every rank can apply the identical
// update. Because z starts replicated (same seed, same w0), the sum is
// bit-identical on every rank (fixed reduction order), and the update reads
// only replicated values, z stays bit-for-bit replicated across the cluster
// without ever being transmitted — each rank also folds its own correction
// α_G(ref − z) into its local reference model.
//
// Churn breaks the replication invariant (an aborted round updates z on
// some nodes and not others; a rejoining node carries a stale or
// snapshot-seeded z). Healing is the transport's Restart flag: any round
// whose membership view changed re-derives z = sum/n on every participant
// and clears the momentum history (z_prev ← z) — the §3.2 restart applied
// at the membership boundary. One successful restart round later the
// cluster is replicated again, whatever state the members arrived in.
//
// A round that fails or comes back Aborted is counted and skipped: the
// boundary made its one all-reduce and training goes on to the next one.
// It is never retried at once. An abort can be one-sided — a peer dies
// after one survivor already holds the whole sum — and an immediate retry
// on the aborting rank would pair with the other survivor's next boundary,
// leaving the two one round apart for the rest of the run. Skipping keeps
// every rank's rounds on the same boundaries; the aborting node's next
// round carries Restart and re-aligns z.
type DistClusterSMA struct {
	cfg ClusterSMAConfig
	sma *SMA // this server's intra-server tier
	ex  GlobalExchanger

	// async is non-nil when OverlapGlobal is on and the exchanger supports
	// it: the τ_global boundary then launches the round and keeps
	// training; pending is the in-flight handle until the next fold
	// boundary (see Drain).
	async   AsyncGlobalExchanger
	pending PendingExchange

	z, zPrev []float32 // cluster average model, replicated across nodes
	buf      []float32 // all-reduce scratch
	state    stateRanges

	iter       int
	localSyncs int

	rounds     int64 // successful global exchanges
	aborted    int64 // failed or aborted exchanges, each skipped
	overlapped int64 // exchanges launched asynchronously
	lastRnd    ExchangeRound
}

// NewDistClusterSMA creates the optimiser for this server's k local
// learners. w0 must be identical on every cold-started node (same seed) —
// a node warm-started from a peer snapshot gets healed by its first
// (restart) round instead. ex is the cluster network.
func NewDistClusterSMA(cfg ClusterSMAConfig, w0 []float32, k int, ex GlobalExchanger) *DistClusterSMA {
	if ex == nil {
		panic("core: DistClusterSMA needs a GlobalExchanger")
	}
	if cfg.Tau < 1 {
		cfg.Tau = 1
	}
	if cfg.TauGlobal < 1 {
		cfg.TauGlobal = 1
	}
	d := &DistClusterSMA{
		cfg:   cfg,
		sma:   NewSMA(cfg.SMAConfig, w0, k),
		ex:    ex,
		z:     append([]float32(nil), w0...),
		zPrev: append([]float32(nil), w0...),
		buf:   make([]float32, len(w0)),
		state: newStateRanges(cfg.StateRanges, len(w0)),
	}
	if cfg.OverlapGlobal {
		// Degrade silently when the exchanger has no asynchronous path:
		// the synchronous exchange computes the identical result, just
		// without hiding it behind computation.
		if a, ok := ex.(AsyncGlobalExchanger); ok {
			d.async = a
		}
	}
	return d
}

// Average returns the cluster average model z — the model the cluster
// trains, bit-identical on every node after each successful round. Live
// slice; do not modify.
func (d *DistClusterSMA) Average() []float32 { return d.z }

// Ref returns this server's reference model (the intra-server tier's
// average model). Live slice; tests compare it against z.
func (d *DistClusterSMA) Ref() []float32 { return d.sma.Average() }

// SetLearnRate updates γ on the local learners.
func (d *DistClusterSMA) SetLearnRate(lr float32) { d.sma.SetLearnRate(lr) }

// Rounds returns the number of successful global exchanges folded into z.
func (d *DistClusterSMA) Rounds() int64 { return d.rounds }

// AbortedRounds returns the number of failed or aborted exchanges, each of
// them skipped.
func (d *DistClusterSMA) AbortedRounds() int64 { return d.aborted }

// LastRound returns the most recent exchange's report.
func (d *DistClusterSMA) LastRound() ExchangeRound { return d.lastRnd }

// OverlappedExchanges returns the number of exchanges launched
// asynchronously (OverlapGlobal with an async-capable exchanger).
func (d *DistClusterSMA) OverlappedExchanges() int64 { return d.overlapped }

// Step performs one local iteration, and on every TauGlobal-th local
// synchronisation runs the cross-server exchange over the network.
//
// With OverlapGlobal the boundary only *launches* the round: the exchange
// proceeds on the transport's exchange goroutine while the next
// iteration's forward/backward passes run, and the completed sum is folded
// in at Step's entry one iteration later (or at an earlier snapshot /
// evaluation boundary — see Drain). Between launch and fold nothing reads
// or writes the optimiser state the fold touches — the intervening
// computation only reads replica weights and writes gradients — so the
// folded state is bit-for-bit the synchronous path's, merely computed
// while the network round-trip was hidden behind useful work.
func (d *DistClusterSMA) Step(ws, gs [][]float32) {
	d.Drain()
	d.iter++
	d.sma.Step(ws, gs)
	if d.iter%d.cfg.Tau != 0 {
		return
	}
	d.localSyncs++
	if d.localSyncs%d.cfg.TauGlobal != 0 {
		return
	}
	if d.async != nil {
		d.launch()
		return
	}
	copy(d.buf, d.sma.Average())
	d.fold(d.ex.AllReduce(d.buf))
}

// launch starts the asynchronous global round: snapshot the reference
// model into the scratch buffer and hand it to the exchange goroutine.
// The reference model itself is not mutated again until the fold, so the
// bytes summed are exactly those the synchronous exchange would have sent.
func (d *DistClusterSMA) launch() {
	copy(d.buf, d.sma.Average())
	p, err := d.async.BeginAllReduce(d.buf)
	if err != nil {
		// Transport closed (shutdown); train on locally.
		d.aborted++
		return
	}
	d.overlapped++
	d.pending = p
}

// Drain folds any in-flight asynchronous exchange into z, blocking until
// the collective completes. It runs wherever the synchronous path would
// already have folded before state is read: at the next Step's entry,
// before a snapshot is published, before evaluation, and before a restart.
// Every rank reaches these boundaries at the same logical point of the
// lockstep schedule, so z stays bit-replicated across the cluster. A
// fault-aborted round is skipped here exactly as on the synchronous path.
func (d *DistClusterSMA) Drain() {
	p := d.pending
	if p == nil {
		return
	}
	d.pending = nil
	d.fold(p.Wait())
}

// fold applies one completed round, or counts and skips a round that failed
// (the transport is closed: train on locally) or aborted (the next round
// this node joins carries Restart).
func (d *DistClusterSMA) fold(r ExchangeRound, err error) {
	if err != nil {
		d.aborted++
		return
	}
	d.lastRnd = r
	if r.Aborted || r.Participants < 1 {
		d.aborted++
		return
	}
	d.apply(r)
}

// apply folds a completed round's consensus sum into the cluster average
// model and the local reference model.
func (d *DistClusterSMA) apply(r ExchangeRound) {
	n := float32(r.Participants)
	alphaG := 1 / n
	d.rounds++
	if serialWalk(len(d.z)) {
		d.applyRange(r.Restart, alphaG, n, 0, len(d.z))
		return
	}
	tensor.ParallelFor(len(d.z), smaGrain, func(lo, hi int) { d.applyRange(r.Restart, alphaG, n, lo, hi) })
}

func (d *DistClusterSMA) applyRange(restart bool, alphaG, n float32, lo, hi int) {
	ref, z, zPrev, sum := d.sma.Average(), d.z, d.zPrev, d.buf
	for seg := d.state.segments(lo, hi); ; {
		a, b, state, ok := seg.next()
		if !ok {
			return
		}
		switch {
		case restart:
			// Membership changed: z may not be replicated across the
			// participants any more (an aborted round updated some nodes, a
			// rejoiner carries a snapshot-seeded model), so re-derive it from
			// the one value that is — the consensus sum — and clear the
			// momentum history. Then pull the local reference model toward
			// the fresh consensus with a plain correction. Cold starts never
			// come through here: all nodes boot with z = w0 from the shared
			// seed, so the incremental update below is already replicated.
			for i := a; i < b; i++ {
				zn := sum[i] / n
				z[i] = zn
				zPrev[i] = zn
				if !state {
					ref[i] -= alphaG * (ref[i] - zn)
				}
			}
		case state:
			// State (batch-norm statistics): the cluster average model
			// carries the server average, no corrections.
			for i := a; i < b; i++ {
				zPrev[i] = z[i]
				z[i] = sum[i] / n
			}
		default:
			// Steady state: the global tier, factored through the sum.
			tensor.SMADistFold(ref[a:b], z[a:b], zPrev[a:b], sum[a:b], alphaG, n, d.cfg.Momentum)
		}
	}
}

// Restart re-initialises the averaging process from the cluster average
// model (§3.2): the server reference model and all local replicas reset to
// z, momentum history cleared. Every node restarts at the same epoch with
// a replicated z, so the cluster stays replicated.
func (d *DistClusterSMA) Restart(ws [][]float32) {
	if len(ws) != d.sma.K() {
		panic(fmt.Sprintf("core: DistClusterSMA.Restart with %d replicas, want %d", len(ws), d.sma.K()))
	}
	d.Drain()
	copy(d.zPrev, d.z)
	tensor.Copy(d.sma.z, d.z)
	tensor.Copy(d.sma.zPrev, d.z)
	d.sma.Restart(ws)
	d.iter = 0
	d.localSyncs = 0
}
