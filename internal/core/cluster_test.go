package core

import (
	"math"
	"sync"
	"testing"

	"crossbow/internal/nn"
	"crossbow/internal/tensor"
)

// fakeGrads fills gs with deterministic pseudo-gradients that differ per
// learner and per iteration.
func fakeGrads(gs [][]float32, iter int) {
	for j := range gs {
		for i := range gs[j] {
			gs[j][i] = float32(math.Sin(float64(iter)*0.7+float64(j)*1.3+float64(i)*0.11)) * 0.1
		}
	}
}

func makeReplicas(k, dim int) (ws, gs [][]float32, w0 []float32) {
	w0 = make([]float32, dim)
	for i := range w0 {
		w0[i] = float32(math.Cos(float64(i) * 0.3))
	}
	for j := 0; j < k; j++ {
		ws = append(ws, append([]float32(nil), w0...))
		gs = append(gs, make([]float32, dim))
	}
	return ws, gs, w0
}

// distCluster builds one DistClusterSMA per server over a fresh in-memory
// exchange, each with perServer replicas of makeReplicas' w0.
func distCluster(cfg ClusterSMAConfig, servers, perServer, dim int) (nodes []*DistClusterSMA, ws, gs [][][]float32) {
	ex := newMemExchange(servers)
	for s := 0; s < servers; s++ {
		w, g, w0 := makeReplicas(perServer, dim)
		ws, gs = append(ws, w), append(gs, g)
		nodes = append(nodes, NewDistClusterSMA(cfg, w0, perServer, ex.handle(s)))
	}
	return nodes, ws, gs
}

// TestClusterSMAGlobalTierPullsServersTogether: servers receiving opposing
// gradients drift apart; a tighter τ_global must keep their reference
// models closer.
func TestClusterSMAGlobalTierPullsServersTogether(t *testing.T) {
	const dim = 16
	run := func(tauGlobal int) float64 {
		nodes, ws, gs := distCluster(ClusterSMAConfig{
			SMAConfig: SMAConfig{LearnRate: 0.1, Momentum: 0.5},
			TauGlobal: tauGlobal,
		}, 2, 2, dim)
		for s := range gs {
			for j := range gs[s] {
				for i := range gs[s][j] {
					gs[s][j][i] = float32(1 - 2*s)
				}
			}
		}
		for iter := 1; iter <= 8; iter++ {
			stepDist(nodes, ws, gs)
		}
		return float64(tensor.MaxAbsDiff(nodes[0].Ref(), nodes[1].Ref()))
	}
	tight, loose := run(1), run(8)
	if tight >= loose {
		t.Errorf("server drift with tau_global=1 (%v) not below tau_global=8 (%v)", tight, loose)
	}
	if loose == 0 {
		t.Error("opposing gradients should make unsynchronised servers drift")
	}
}

// TestClusterSMAStateCarriesServerMean: state entries (batch-norm
// statistics) are exempt from corrections; the cluster average model must
// carry the mean of the server reference models there.
func TestClusterSMAStateCarriesServerMean(t *testing.T) {
	const dim = 8
	nodes, ws, gs := distCluster(ClusterSMAConfig{
		SMAConfig: SMAConfig{LearnRate: 0.1, StateRanges: [][2]int{{6, 8}}},
	}, 2, 1, dim)
	// Two steps: a reference model carries its replicas' statistics as they
	// stood before the step, so the servers differ from the second step on.
	for iter := 1; iter <= 2; iter++ {
		fakeGrads(gs[0], iter)
		fakeGrads(gs[1], iter+7)
		stepDist(nodes, ws, gs)
	}
	for i := 6; i < 8; i++ {
		want := (nodes[0].Ref()[i] + nodes[1].Ref()[i]) / 2
		if want == nodes[0].Ref()[i] {
			t.Fatalf("state entry %d: the servers' statistics did not diverge", i)
		}
		for s, n := range nodes {
			if got := n.Average()[i]; got != want {
				t.Errorf("state entry %d on server %d: cluster average %v, want server mean %v", i, s, got, want)
			}
		}
	}
}

// trainRanks runs Train as n ranks of one cluster over a fresh Loopback,
// the way the root package's simulated transport does.
func trainRanks(n int, cfg Config, train func(Config, Inputs) *Result) []*Result {
	hub := NewLoopback(n)
	results := make([]*Result, n)
	cfg.Servers = n
	var wg sync.WaitGroup
	for r := range results {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer hub.Close()
			results[r] = train(cfg, Inputs{
				Exchange:    hub.Rank(r),
				ShuffleSeed: uint64(101 + r), // distinct batch streams
			})
		}(r)
	}
	wg.Wait()
	return results
}

// TestTrainClusterSMA exercises the full trainer loop on the cluster
// algorithm: it must learn, stay deterministic, and report the per-rank K.
func TestTrainClusterSMA(t *testing.T) {
	cfg := Config{
		Model: nn.LeNet, Algo: AlgoSMACluster,
		GPUs: 1, LearnersPerGPU: 2, Batch: 8,
		Momentum: 0.9, MaxEpochs: 4, Seed: 1,
	}
	res := trainRanks(2, cfg, Train)
	for r, rr := range res {
		if rr.K != 2 {
			t.Fatalf("rank %d: K = %d, want 2 (1 GPU × 2 learners per rank)", r, rr.K)
		}
	}
	if res[0].FinalAccuracy <= 0.12 {
		t.Fatalf("accuracy %.3f barely above chance", res[0].FinalAccuracy)
	}
	again := trainRanks(2, cfg, Train)
	for r := range res {
		if tensor.MaxAbsDiff(res[r].Model, again[r].Model) != 0 {
			t.Fatalf("rank %d: cluster training not deterministic", r)
		}
	}
}
