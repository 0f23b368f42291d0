package core

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crossbow/internal/nn"
	"crossbow/internal/tensor"
)

// memExchange is the production Loopback behind a thin wrapper that adds
// what only tests need: injected Restart/Aborted flags on the next round,
// and the asynchronous API (so OverlapGlobal has something to overlap).
type memExchange struct {
	*Loopback
	// Fault injection for the next round: set between rounds, read by every
	// participant on entry, cleared once the faulted round has completed.
	forceRestart, forceAbort atomic.Bool
}

func newMemExchange(n int) *memExchange { return &memExchange{Loopback: NewLoopback(n)} }

// handle returns rank r's GlobalExchanger view.
func (m *memExchange) handle(rank int) GlobalExchanger {
	return &memHandle{m: m, ex: m.Rank(rank)}
}

type memHandle struct {
	m  *memExchange
	ex GlobalExchanger
}

func (h *memHandle) AllReduce(buf []float32) (ExchangeRound, error) {
	restart, abort := h.m.forceRestart.Load(), h.m.forceAbort.Load()
	r, err := h.ex.AllReduce(buf)
	// The round completed after every participant read the flags, so each
	// may clear them on its way out.
	h.m.forceRestart.Store(false)
	h.m.forceAbort.Store(false)
	r.Restart, r.Aborted = restart, abort
	return r, err
}

// memPending adapts memHandle.AllReduce to the async API the same way the
// TCP transport's exchange goroutine does: the blocking collective runs on
// its own goroutine and the handle resolves when it returns.
type memPending struct {
	done chan struct{}
	r    ExchangeRound
	err  error
}

func (p *memPending) Poll() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

func (p *memPending) Wait() (ExchangeRound, error) { <-p.done; return p.r, p.err }

func (h *memHandle) BeginAllReduce(buf []float32) (PendingExchange, error) {
	p := &memPending{done: make(chan struct{})}
	go func() { p.r, p.err = h.AllReduce(buf); close(p.done) }()
	return p, nil
}

// stepDist drives n DistClusterSMA nodes through one iteration each,
// concurrently (the exchanger barriers them on τ_global boundaries).
func stepDist(nodes []*DistClusterSMA, ws, gs [][][]float32) {
	var wg sync.WaitGroup
	for s := range nodes {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			nodes[s].Step(ws[s], gs[s])
		}(s)
	}
	wg.Wait()
}

// TestDistClusterMatchesSimulated compares DistClusterSMA against the
// scalar two-tier oracle on the same gradient schedule — an oracleSMA per
// server, and oracleExchange one tier up with the server reference models
// as the replicas, all four learners in one loop: two servers with two
// learners each, τ=2, τ_global=2, momentum and state ranges on. The
// distributed form computes Σα(ref−z) as α(sum − n·z), so floating-point
// rounding may differ from the oracle's per-server accumulation —
// trajectories must agree to tight tolerance, and the distributed z must be
// bit-identical across nodes at every step.
func TestDistClusterMatchesSimulated(t *testing.T) {
	const servers, perServer, dim = 2, 2, 32
	cfg := ClusterSMAConfig{
		SMAConfig: SMAConfig{
			LearnRate: 0.05, Momentum: 0.9, LocalMomentum: 0.6,
			Tau: 2, StateRanges: [][2]int{{28, 32}},
		},
		TauGlobal: 2,
	}

	// Oracle: every server's learners and the cluster average model in one
	// process.
	wsSim, gsSim, w0 := makeReplicas(servers*perServer, dim)
	sims := make([]*oracleSMA, servers)
	refs := make([][]float32, servers)
	for s := range sims {
		sims[s] = newOracleSMA(cfg.SMAConfig, w0, perServer)
		refs[s] = sims[s].z
	}
	z, zPrev := append([]float32(nil), w0...), append([]float32(nil), w0...)
	mask, delta := oracleMask(cfg.StateRanges, dim), make([]float32, dim)

	// Distributed: one node per server, each holding its two learners.
	nodes, wsD, gsD := distCluster(cfg, servers, perServer, dim)

	for iter := 1; iter <= 12; iter++ {
		fakeGrads(gsSim, iter)
		for s := 0; s < servers; s++ {
			// Learner j of server s is global learner s*perServer+j.
			lo, hi := s*perServer, (s+1)*perServer
			for j := 0; j < perServer; j++ {
				copy(gsD[s][j], gsSim[lo+j])
			}
			sims[s].step(wsSim[lo:hi], gsSim[lo:hi])
		}
		if iter%(cfg.Tau*cfg.TauGlobal) == 0 {
			oracleExchange(refs, z, zPrev, delta, mask, 1/float32(servers), cfg.Momentum)
		}
		stepDist(nodes, wsD, gsD)

		// Replication invariant: z bit-identical across nodes.
		if d := tensor.MaxAbsDiff(nodes[0].Average(), nodes[1].Average()); d != 0 {
			t.Fatalf("iter %d: distributed z diverges across nodes by %v", iter, d)
		}
		// Against the oracle: tight tolerance (operand-order rounding only).
		if d := tensor.MaxAbsDiff(z, nodes[0].Average()); d > 2e-6 {
			t.Fatalf("iter %d: distributed z off the oracle by %v", iter, d)
		}
		for s := 0; s < servers; s++ {
			if d := tensor.MaxAbsDiff(refs[s], nodes[s].Ref()); d > 2e-6 {
				t.Fatalf("iter %d: server %d reference model off oracle by %v", iter, s, d)
			}
			for j := 0; j < perServer; j++ {
				if d := tensor.MaxAbsDiff(wsSim[s*perServer+j], wsD[s][j]); d > 2e-6 {
					t.Fatalf("iter %d: replica %d/%d off oracle by %v", iter, s, j, d)
				}
			}
		}
	}
	if nodes[0].Rounds() != 3 {
		t.Fatalf("%d global rounds ran, want 3", nodes[0].Rounds())
	}
}

// TestDistClusterRestartHeals corrupts one node's cluster average model —
// standing in for any churn-induced divergence (missed round, stale
// rejoiner) — and checks a Restart-flagged round restores bit-exact
// replication from the consensus sum.
func TestDistClusterRestartHeals(t *testing.T) {
	const servers, dim = 2, 16
	cfg := ClusterSMAConfig{SMAConfig: SMAConfig{LearnRate: 0.1, Momentum: 0.9}}
	ex := newMemExchange(servers)
	nodes := make([]*DistClusterSMA, servers)
	wsD := make([][][]float32, servers)
	gsD := make([][][]float32, servers)
	var w0 []float32
	for s := 0; s < servers; s++ {
		ws, gs, w := makeReplicas(1, dim)
		wsD[s], gsD[s], w0 = ws, gs, w
		nodes[s] = NewDistClusterSMA(cfg, w0, 1, ex.handle(s))
	}

	// A clean round, then corruption on node 1.
	for s := range nodes {
		fakeGrads(gsD[s], 1)
	}
	stepDist(nodes, wsD, gsD)
	for i := range nodes[1].z {
		nodes[1].z[i] += float32(i) * 0.01
		nodes[1].zPrev[i] -= 0.5
	}
	if tensor.MaxAbsDiff(nodes[0].Average(), nodes[1].Average()) == 0 {
		t.Fatal("corruption did not take")
	}

	// Without a restart the nodes would now walk different trajectories;
	// the flagged round re-derives z = sum/n everywhere.
	ex.forceRestart.Store(true)
	for s := range nodes {
		fakeGrads(gsD[s], 2)
	}
	stepDist(nodes, wsD, gsD)
	if d := tensor.MaxAbsDiff(nodes[0].Average(), nodes[1].Average()); d != 0 {
		t.Fatalf("restart round did not re-replicate z (diff %v)", d)
	}
	if d := tensor.MaxAbsDiff(nodes[0].z, nodes[0].zPrev); d != 0 {
		t.Fatalf("restart round must clear momentum history (z−zPrev %v)", d)
	}

	// And the cluster keeps training normally afterwards, still replicated.
	for iter := 3; iter <= 6; iter++ {
		for s := range nodes {
			fakeGrads(gsD[s], iter)
		}
		stepDist(nodes, wsD, gsD)
		if d := tensor.MaxAbsDiff(nodes[0].Average(), nodes[1].Average()); d != 0 {
			t.Fatalf("iter %d: z diverged after heal by %v", iter, d)
		}
	}
}

// TestDistClusterAbortSkipsUpdate pins the abort semantics with retries
// disabled: an aborted collective leaves z and zPrev untouched and counts
// the abort; training continues on the next round.
func TestDistClusterAbortSkipsUpdate(t *testing.T) {
	const dim = 8
	cfg := ClusterSMAConfig{SMAConfig: SMAConfig{LearnRate: 0.1}, ExchangeRetries: -1}
	ex := newMemExchange(1)
	ws, gs, w0 := makeReplicas(1, dim)
	d := NewDistClusterSMA(cfg, w0, 1, ex.handle(0))

	fakeGrads(gs, 1)
	d.Step(ws, gs) // seeds z (first round)
	zBefore := append([]float32(nil), d.Average()...)

	ex.forceAbort.Store(true)
	fakeGrads(gs, 2)
	d.Step(ws, gs)
	if tensor.MaxAbsDiff(d.Average(), zBefore) != 0 {
		t.Fatal("aborted round must not touch z")
	}
	if d.AbortedRounds() != 1 || d.Rounds() != 1 {
		t.Fatalf("counters: rounds %d aborted %d, want 1/1", d.Rounds(), d.AbortedRounds())
	}

	fakeGrads(gs, 3)
	d.Step(ws, gs)
	if d.Rounds() != 2 {
		t.Fatalf("post-abort round did not run (rounds %d)", d.Rounds())
	}
	if tensor.MaxAbsDiff(d.Average(), zBefore) == 0 {
		t.Fatal("post-abort round must move z again")
	}
}

// TestDistClusterRetryRescuesExchange pins the bounded retry: with the
// default budget, a collective that aborts once is retried within the same
// τ_global boundary, and the rescued round still updates z. The retry is
// sound because a post-churn round carries Restart and re-derives z — a
// missed first attempt never double-applies anything.
func TestDistClusterRetryRescuesExchange(t *testing.T) {
	const dim = 8
	cfg := ClusterSMAConfig{SMAConfig: SMAConfig{LearnRate: 0.1}}
	ex := newMemExchange(1)
	ws, gs, w0 := makeReplicas(1, dim)
	d := NewDistClusterSMA(cfg, w0, 1, ex.handle(0))

	fakeGrads(gs, 1)
	d.Step(ws, gs) // seeds z (first round)
	zBefore := append([]float32(nil), d.Average()...)

	// The exchanger clears the injected fault once the faulted round
	// completes, so the immediate retry succeeds.
	ex.forceAbort.Store(true)
	fakeGrads(gs, 2)
	d.Step(ws, gs)
	if tensor.MaxAbsDiff(d.Average(), zBefore) == 0 {
		t.Fatal("retried exchange must still update z")
	}
	if d.Rounds() != 2 || d.AbortedRounds() != 1 || d.RetriedExchanges() != 1 {
		t.Fatalf("counters: rounds %d aborted %d retried %d, want 2/1/1",
			d.Rounds(), d.AbortedRounds(), d.RetriedExchanges())
	}
}

// TestDistClusterOverlapBitIdentical pins the tentpole invariant at the
// optimiser level: the SAME two-server gradient schedule, run once with
// synchronous exchanges and once with OverlapGlobal, must produce
// bit-identical z trajectories. Between launch and fold only local
// iterations run, and they never read or write z, so folding one Step
// later consumes exactly the bytes the synchronous path would have.
func TestDistClusterOverlapBitIdentical(t *testing.T) {
	const servers, perServer, dim = 2, 2, 32
	mk := func(overlap bool) ([]*DistClusterSMA, [][][]float32, [][][]float32) {
		cfg := ClusterSMAConfig{
			SMAConfig: SMAConfig{
				LearnRate: 0.05, Momentum: 0.9, LocalMomentum: 0.6,
				Tau: 2, StateRanges: [][2]int{{28, 32}},
			},
			TauGlobal:     2,
			OverlapGlobal: overlap,
		}
		return distCluster(cfg, servers, perServer, dim)
	}

	syncN, syncW, syncG := mk(false)
	overN, overW, overG := mk(true)

	for iter := 1; iter <= 16; iter++ {
		for s := 0; s < servers; s++ {
			fakeGrads(syncG[s], iter*servers+s)
			for j := range overG[s] {
				copy(overG[s][j], syncG[s][j])
			}
		}
		stepDist(syncN, syncW, syncG)
		stepDist(overN, overW, overG)
		// The overlapped node may still have the round in flight — fold it
		// at a deterministic boundary before comparing, exactly as the
		// trainer does before evaluating or publishing.
		for s := 0; s < servers; s++ {
			overN[s].Drain()
		}
		for s := 0; s < servers; s++ {
			if d := tensor.MaxAbsDiff(syncN[s].Average(), overN[s].Average()); d != 0 {
				t.Fatalf("iter %d server %d: overlapped z off the synchronous run by %v", iter, s, d)
			}
			if d := tensor.MaxAbsDiff(syncN[s].Ref(), overN[s].Ref()); d != 0 {
				t.Fatalf("iter %d server %d: reference model diverged by %v", iter, s, d)
			}
			for j := range syncW[s] {
				if d := tensor.MaxAbsDiff(syncW[s][j], overW[s][j]); d != 0 {
					t.Fatalf("iter %d replica %d/%d diverged by %v", iter, s, j, d)
				}
			}
		}
	}
	for s := 0; s < servers; s++ {
		if overN[s].OverlappedExchanges() < 1 {
			t.Fatalf("server %d never overlapped an exchange", s)
		}
		if syncN[s].Rounds() != overN[s].Rounds() {
			t.Fatalf("round counts differ: sync %d vs overlap %d", syncN[s].Rounds(), overN[s].Rounds())
		}
	}
}

// TestTrainDistCluster runs the full trainer as two ranks over the
// loopback: both must finish with the identical cluster average model and
// learn above chance.
func TestTrainDistCluster(t *testing.T) {
	results := trainRanks(2, TrainConfig{
		Model: nn.LeNet, Algo: AlgoSMACluster,
		GPUs: 1, LearnersPerGPU: 2, BatchPerLearner: 8,
		Momentum: 0.9, MaxEpochs: 3, Seed: 1,
	}, Train)
	for s, res := range results {
		if res.FinalAccuracy <= 0.12 {
			t.Fatalf("node %d: accuracy %.3f barely above chance", s, res.FinalAccuracy)
		}
	}
	if d := tensor.MaxAbsDiff(results[0].Model, results[1].Model); d != 0 {
		t.Fatalf("final cluster average models differ across nodes by %v", d)
	}
}

// TestLoopbackSumsInRankOrder pins the reduction: every rank leaves a round
// holding ((b0+b1)+b2)+b3 bit for bit, on values where the association
// shows, and rounds are numbered from 1.
func TestLoopbackSumsInRankOrder(t *testing.T) {
	const n, dim = 4, 37
	hub := NewLoopback(n)
	bufs := make([][]float32, n)
	want := make([]float32, dim)
	for r := range bufs {
		bufs[r] = make([]float32, dim)
		for i := range bufs[r] {
			bufs[r][i] = float32(math.Sin(float64(r*dim+i))) * float32(math.Pow(10, float64(r*3)))
		}
	}
	for i := range want {
		want[i] = ((bufs[0][i] + bufs[1][i]) + bufs[2][i]) + bufs[3][i]
	}
	for round := uint64(1); round <= 2; round++ {
		var wg sync.WaitGroup
		for r := range bufs {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				got, err := hub.Rank(r).AllReduce(bufs[r])
				if err != nil || got != (ExchangeRound{Seq: round, Participants: n}) {
					t.Errorf("rank %d round %d: %+v, %v", r, round, got, err)
				}
			}(r)
		}
		wg.Wait()
		if round == 1 {
			for r := range bufs {
				bitsEqual(t, "sum", bufs[r], want)
			}
		}
	}
}

// TestLoopbackEarlyReturn: a rank that leaves closes the exchange; peers
// parked in a round that can no longer complete get the error instead of
// waiting forever, later calls fail at once, and DistClusterSMA trains on
// locally.
func TestLoopbackEarlyReturn(t *testing.T) {
	const n, dim = 3, 8
	hub := NewLoopback(n)
	errs := make(chan error, n-1) // one send per parked rank
	for r := 1; r < n; r++ {
		go func(r int) {
			_, err := hub.Rank(r).AllReduce(make([]float32, dim))
			errs <- err
		}(r)
	}
	for parked := 0; parked < n-1; runtime.Gosched() {
		hub.mu.Lock()
		parked = hub.arrived
		hub.mu.Unlock()
	}
	hub.Close() // rank 0 returns without joining the round
	for r := 1; r < n; r++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrLoopbackClosed) {
				t.Fatalf("parked rank got %v, want ErrLoopbackClosed", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a rank is still parked in AllReduce after the exchange was closed")
		}
	}
	if _, err := hub.Rank(1).AllReduce(make([]float32, dim)); !errors.Is(err, ErrLoopbackClosed) {
		t.Fatalf("AllReduce on a closed exchange: %v", err)
	}

	ws, gs, w0 := makeReplicas(1, dim)
	d := NewDistClusterSMA(ClusterSMAConfig{SMAConfig: SMAConfig{LearnRate: 0.1}}, w0, 1, hub.Rank(2))
	fakeGrads(gs, 1)
	d.Step(ws, gs)
	if d.Rounds() != 0 || d.AbortedRounds() != 1 {
		t.Fatalf("closed exchange: rounds %d aborted %d, want 0/1", d.Rounds(), d.AbortedRounds())
	}
	if tensor.MaxAbsDiff(ws[0], w0) == 0 {
		t.Fatal("the local step must still run when the exchange is closed")
	}
}
