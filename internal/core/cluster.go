package core

import (
	"fmt"

	"crossbow/internal/tensor"
)

// ClusterSMAConfig extends SMAConfig with the inter-server tier of the
// cluster plane's two-level averaging schedule.
type ClusterSMAConfig struct {
	SMAConfig // intra-server tier: LearnRate, Momentum, LocalMomentum, Alpha, Tau (τ_local), StateRanges

	// TauGlobal is the inter-server averaging period in units of
	// intra-server synchronisations: server reference models exchange
	// corrections every TauGlobal-th local synchronisation (0 → 1).
	TauGlobal int
	// AlphaGlobal is the inter-server correction constant ≈ 1/n for n
	// servers. Zero selects 1/n.
	AlphaGlobal float32
	// GlobalMomentum is µ applied to the cluster average model's update;
	// zero selects Momentum.
	GlobalMomentum float32
	// ExchangeRetries bounds how many times a fault-aborted global
	// exchange is retried back-to-back before the update is skipped until
	// the next τ_global boundary (0 → 2, negative → no retries). Retrying
	// is sound: the round that eventually succeeds after churn carries
	// Restart and re-derives z, so a missed attempt never corrupts state —
	// retries just keep the averaging schedule on cadence under faults.
	ExchangeRetries int
	// OverlapGlobal, with an exchanger that supports AsyncGlobalExchanger,
	// launches the global all-reduce at the τ_global boundary and keeps
	// local iterations running while the sum is in flight; the completed
	// sum is folded in at the next deterministic boundary every rank
	// reaches identically (see DistClusterSMA.Drain). Ignored by the
	// in-process ClusterSMA (its exchange is a memory copy) and by
	// exchangers without an asynchronous path.
	OverlapGlobal bool
}

// ClusterSMA generalises the hierarchical SMA of §3.3 by one level: the
// learners of each server run flat SMA against their server's reference
// model every τ_local iterations (cheap, intra-server scope), and every
// τ_global local synchronisations the server reference models themselves
// run an SMA exchange against the cluster average model (expensive,
// network scope). With a single server the global tier vanishes and the
// optimiser is exactly SMA — the degenerate case the tests pin down.
type ClusterSMA struct {
	cfg     ClusterSMAConfig
	servers [][]int // learner indices per server
	smas    []*SMA  // one intra-server optimiser per server

	z      []float32 // cluster average model (nil with one server)
	zPrev  []float32
	state  stateRanges
	alphaG float32
	muG    float32

	wViews, gViews [][][]float32 // reusable per-server slice views

	iter       int
	localSyncs int
}

// NewClusterSMA creates the optimiser. servers assigns each learner index
// to a server; the groups must partition 0..k-1.
func NewClusterSMA(cfg ClusterSMAConfig, w0 []float32, servers [][]int) *ClusterSMA {
	if len(servers) == 0 {
		panic("core: cluster SMA needs at least one server")
	}
	if cfg.Tau < 1 {
		cfg.Tau = 1
	}
	if cfg.TauGlobal < 1 {
		cfg.TauGlobal = 1
	}
	alphaG := cfg.AlphaGlobal
	if alphaG == 0 {
		alphaG = 1 / float32(len(servers))
	}
	muG := cfg.GlobalMomentum
	if muG == 0 {
		muG = cfg.Momentum
	}
	c := &ClusterSMA{cfg: cfg, alphaG: alphaG, muG: muG}
	k := 0
	for _, s := range servers {
		if len(s) == 0 {
			panic("core: empty server group")
		}
		c.servers = append(c.servers, append([]int(nil), s...))
		k += len(s)
	}
	validateGroups(servers, k)
	for _, s := range c.servers {
		c.smas = append(c.smas, NewSMA(cfg.SMAConfig, w0, len(s)))
		c.wViews = append(c.wViews, make([][]float32, len(s)))
		c.gViews = append(c.gViews, make([][]float32, len(s)))
	}
	if len(c.servers) > 1 {
		c.z = append([]float32(nil), w0...)
		c.zPrev = append([]float32(nil), w0...)
		c.state = newStateRanges(cfg.StateRanges, len(w0))
	}
	return c
}

// Average returns the model the cluster trains: the cluster average model,
// or the single server's average model in the degenerate case. The slice
// is live — do not modify.
func (c *ClusterSMA) Average() []float32 {
	if len(c.smas) == 1 {
		return c.smas[0].Average()
	}
	return c.z
}

// SetLearnRate updates γ on every server.
func (c *ClusterSMA) SetLearnRate(lr float32) {
	for _, s := range c.smas {
		s.SetLearnRate(lr)
	}
}

// Servers returns the learner grouping (for tests and the engine).
func (c *ClusterSMA) Servers() [][]int { return c.servers }

func (c *ClusterSMA) fillViews(ws, gs [][]float32) {
	for si, s := range c.servers {
		for i, j := range s {
			c.wViews[si][i] = ws[j]
			if gs != nil {
				c.gViews[si][i] = gs[j]
			}
		}
	}
}

// Step performs one cluster iteration: every server runs its own SMA step
// (local gradient steps, and on τ_local boundaries the intra-server
// exchange with the server's reference model); every τ_global-th local
// synchronisation, the reference models run the same exchange one tier up
// against the cluster average model, which follows the cross-server
// consensus with its own momentum.
func (c *ClusterSMA) Step(ws, gs [][]float32) {
	c.iter++
	c.fillViews(ws, gs)
	for si := range c.smas {
		c.smas[si].Step(c.wViews[si], c.gViews[si])
	}
	if c.iter%c.cfg.Tau != 0 {
		return
	}
	c.localSyncs++
	if len(c.smas) == 1 || c.localSyncs%c.cfg.TauGlobal != 0 {
		return
	}
	// Inter-server tier: the same consensus exchange one level up — the
	// server reference models play the replicas, the cluster average
	// model plays z (Alg 1 lines 8-13 with servers as the replicas).
	refs := make([][]float32, len(c.smas))
	for si, s := range c.smas {
		refs[si] = s.Average()
	}
	smaExchange(refs, c.z, c.zPrev, c.state, c.alphaG, c.muG)
}

// Restart re-initialises the averaging process from the cluster average
// model (§3.2): server reference models and replicas reset to it, momentum
// history cleared.
func (c *ClusterSMA) Restart(ws [][]float32) {
	if len(ws) != c.numLearners() {
		panic(fmt.Sprintf("core: ClusterSMA.Restart with %d replicas, want %d", len(ws), c.numLearners()))
	}
	c.fillViews(ws, nil)
	if len(c.smas) > 1 {
		copy(c.zPrev, c.z)
		for _, s := range c.smas {
			tensor.Copy(s.z, c.z)
			tensor.Copy(s.zPrev, c.z)
		}
	}
	for si, s := range c.smas {
		s.Restart(c.wViews[si])
	}
	c.iter = 0
	c.localSyncs = 0
}

func (c *ClusterSMA) numLearners() int {
	k := 0
	for _, s := range c.servers {
		k += len(s)
	}
	return k
}
