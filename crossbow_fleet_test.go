package crossbow

import (
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Fleet-serving harness (DESIGN.md §16): a ModelPublisher streaming
// snapshots to Predictors that follow it, delta distribution with full
// fallback, warm rejoin, and the SLO-driven batching regression pin.

// fleetParams trains the smallest possible LeNet so the tests have a real
// parameter vector of the right shape (accuracy is irrelevant here).
func fleetParams(t *testing.T) []float32 {
	t.Helper()
	res, err := Train(Config{
		Model: LeNet, GPUs: 1, LearnersPerGPU: 1, Batch: 8,
		MaxEpochs: 1, Seed: 7, TrainSamples: 64, TestSamples: 16,
	})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return res.Params
}

// perturb returns a copy of w with the first n elements nudged — the shape
// of a real incremental update: most of the model untouched.
func perturb(w []float32, n int, seed float32) []float32 {
	out := append([]float32(nil), w...)
	if n > len(out) {
		n = len(out)
	}
	for i := 0; i < n; i++ {
		out[i] += seed * 1e-3
	}
	return out
}

// waitVersion polls until the predictor serves at least version v.
func waitVersion(t *testing.T, p *Predictor, v int64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for p.Version() < v {
		if time.Now().After(deadline) {
			t.Fatalf("predictor stuck at version %d, want >= %d (feed: %+v)",
				p.Version(), v, p.FeedStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// snapOf wraps a parameter vector as a publishable snapshot.
func snapOf(w []float32, round int) Snapshot {
	return Snapshot{Model: LeNet, Round: round, Iter: round, Epoch: 1, Params: w}
}

// TestFleetDeltaDistribution is the fleet smoke: a publisher and two cold
// followers converge over deltas after one full snapshot each; one replica
// is killed and rejoins warm (delta-only resync); a diverged replica is
// healed with a forced full snapshot.
func TestFleetDeltaDistribution(t *testing.T) {
	base := fleetParams(t)
	mp, err := NewModelPublisher("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewModelPublisher: %v", err)
	}
	defer mp.Close()

	rounds := [][]float32{base}
	if err := mp.Publish(snapOf(base, 1)); err != nil {
		t.Fatalf("Publish: %v", err)
	}

	newFollower := func() *Predictor {
		p, err := Serve(ServeConfig{Follow: mp.Addr(), FollowTimeout: 10 * time.Second})
		if err != nil {
			t.Fatalf("Serve(follow): %v", err)
		}
		return p
	}
	p1, p2 := newFollower(), newFollower()
	defer p2.Close()
	if got := mp.WaitSubscribers(2, 5*time.Second); got < 2 {
		t.Fatalf("publisher sees %d subscribers, want 2", got)
	}
	if p1.Model() != LeNet || p1.Version() != 1 {
		t.Fatalf("cold follower starts at (%s, v%d), want (lenet, v1)", p1.Model(), p1.Version())
	}

	// Rounds 2–4 are incremental: every follower must take them as deltas.
	for r := 2; r <= 4; r++ {
		w := perturb(rounds[len(rounds)-1], 200, float32(r))
		rounds = append(rounds, w)
		if err := mp.Publish(snapOf(w, r)); err != nil {
			t.Fatalf("Publish round %d: %v", r, err)
		}
	}
	waitVersion(t, p1, 4, 5*time.Second)
	waitVersion(t, p2, 4, 5*time.Second)
	for i, p := range []*Predictor{p1, p2} {
		fs := p.FeedStats()
		if fs.FullSent != 1 || fs.DeltaSent != 3 {
			t.Errorf("follower %d received %d fulls / %d deltas, want 1 / 3", i, fs.FullSent, fs.DeltaSent)
		}
		if fs.Resyncs != 0 {
			t.Errorf("follower %d resynced %d times on a clean feed", i, fs.Resyncs)
		}
	}

	// Bit-identity: a followed replica answers exactly like a local replica
	// holding the same version.
	ref, err := Serve(ServeConfig{Model: LeNet, Params: append([]float32(nil), rounds[3]...), Version: 4})
	if err != nil {
		t.Fatalf("Serve(ref): %v", err)
	}
	defer ref.Close()
	sample := make([]float32, ref.SampleVol())
	for i := range sample {
		sample[i] = float32(i%17) / 17
	}
	want, err := ref.Predict(sample)
	if err != nil {
		t.Fatalf("ref Predict: %v", err)
	}
	for i, p := range []*Predictor{p1, p2} {
		got, err := p.Predict(sample)
		if err != nil {
			t.Fatalf("follower %d Predict: %v", i, err)
		}
		if got.Class != want.Class ||
			math.Float32bits(got.Confidence) != math.Float32bits(want.Confidence) {
			t.Errorf("follower %d answered (%d, %x), local replica (%d, %x)",
				i, got.Class, math.Float32bits(got.Confidence),
				want.Class, math.Float32bits(want.Confidence))
		}
	}

	// Kill one replica; the fleet moves on without it.
	p1.Close()
	for r := 5; r <= 6; r++ {
		w := perturb(rounds[len(rounds)-1], 200, float32(r))
		rounds = append(rounds, w)
		if err := mp.Publish(snapOf(w, r)); err != nil {
			t.Fatalf("Publish round %d: %v", r, err)
		}
	}
	waitVersion(t, p2, 6, 5*time.Second)

	// Warm rejoin: the killed replica comes back holding round 4 — still in
	// the publisher's history — and must be brought current by delta alone.
	p1b, err := Serve(ServeConfig{
		Model:  LeNet,
		Params: append([]float32(nil), rounds[3]...),
		Follow: mp.Addr(), Version: 4,
	})
	if err != nil {
		t.Fatalf("Serve(warm rejoin): %v", err)
	}
	defer p1b.Close()
	waitVersion(t, p1b, 6, 5*time.Second)
	if fs := p1b.FeedStats(); fs.FullSent != 0 || fs.DeltaSent < 1 {
		t.Errorf("warm rejoin received %d fulls / %d deltas, want delta-only resync", fs.FullSent, fs.DeltaSent)
	}

	// Diverged rejoin: a replica claiming round 5 with the WRONG bits must
	// be detected by the CRC handshake and healed with a full snapshot.
	diverged := perturb(rounds[4], 50, 99)
	resyncsBefore := mp.Stats().Resyncs
	p1c, err := Serve(ServeConfig{
		Model:  LeNet,
		Params: diverged,
		Follow: mp.Addr(), Version: 5,
	})
	if err != nil {
		t.Fatalf("Serve(diverged rejoin): %v", err)
	}
	defer p1c.Close()
	waitVersion(t, p1c, 6, 5*time.Second)
	if fs := p1c.FeedStats(); fs.FullSent != 1 {
		t.Errorf("diverged rejoin received %d fulls, want exactly 1 (forced resync)", fs.FullSent)
	}
	if got := mp.Stats().Resyncs; got <= resyncsBefore {
		t.Errorf("publisher Resyncs stayed at %d across a divergence heal", got)
	}
	got, err := p1c.Predict(sample)
	if err != nil {
		t.Fatalf("healed replica Predict: %v", err)
	}
	ref6, _ := Serve(ServeConfig{Model: LeNet, Params: append([]float32(nil), rounds[5]...), Version: 6})
	defer ref6.Close()
	want6, _ := ref6.Predict(sample)
	if got.Class != want6.Class ||
		math.Float32bits(got.Confidence) != math.Float32bits(want6.Confidence) {
		t.Errorf("healed replica diverges from the published round-6 model")
	}
}

// TestFleetTrainPublishServe is the end-to-end path: Config.PublishAddr
// streams a training run's snapshots into a following Predictor, which ends
// the run serving the final model bit-for-bit and survives the publisher
// going away.
func TestFleetTrainPublishServe(t *testing.T) {
	// Reserve a port for the in-Train publisher so the follower knows it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserve port: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	// The tiny run trains in milliseconds — far faster than a TCP dial — so
	// the first snapshot callback holds training (and with it the in-Train
	// publisher) until the follower has attached. OnSnapshot runs after the
	// feed send, so the follower's hello finds this snapshot already
	// current.
	followed := make(chan struct{})
	done := make(chan struct{})
	var res *Result
	var trainErr error
	go func() {
		defer close(done)
		res, trainErr = Train(Config{
			Model: LeNet, GPUs: 1, LearnersPerGPU: 2, Batch: 8,
			MaxEpochs: 2, Seed: 5, TrainSamples: 128, TestSamples: 32,
			PublishEvery: 2, PublishAddr: addr,
			OnSnapshot: func(Snapshot) { <-followed },
		})
	}()

	// Cold follower: redials until the publisher inside Train appears, then
	// blocks in Serve until the first snapshot lands.
	p, err := Serve(ServeConfig{Follow: addr, FollowTimeout: 30 * time.Second})
	close(followed)
	if err != nil {
		t.Fatalf("Serve(follow): %v", err)
	}
	defer p.Close()

	<-done
	if trainErr != nil {
		t.Fatalf("Train: %v", trainErr)
	}
	// 128 samples / 8 batch / 2 learners = 8 iters/epoch × 2 epochs = round 16.
	waitVersion(t, p, 16, 10*time.Second)
	if fs := p.FeedStats(); fs.DeltaSent == 0 {
		t.Errorf("follower took every snapshot as a full (%d fulls) — delta path never used", fs.FullSent)
	}

	ref, err := Serve(ServeConfig{Model: LeNet, Params: res.Params, Version: 16})
	if err != nil {
		t.Fatalf("Serve(ref): %v", err)
	}
	defer ref.Close()
	sample := make([]float32, ref.SampleVol())
	for i := range sample {
		sample[i] = float32((i*31)%23) / 23
	}
	want, _ := ref.Predict(sample)
	got, err := p.Predict(sample) // the publisher is gone; serving continues
	if err != nil {
		t.Fatalf("Predict after publisher shutdown: %v", err)
	}
	if got.Class != want.Class ||
		math.Float32bits(got.Confidence) != math.Float32bits(want.Confidence) {
		t.Errorf("followed replica's final model diverges from Result.Params")
	}
}

// TestFleetAdaptiveBeatsStaticBatch32 is the regression pin for the batch-32
// throughput falloff: under a closed-loop load whose concurrency cannot fill
// 32-sample batches, the SLO-driven service must out-serve a static
// max-batch-32 service, because it right-sizes its batches instead of
// padding every forward pass to 32.
func TestFleetAdaptiveBeatsStaticBatch32(t *testing.T) {
	params := fleetParams(t)
	run := func(cfg ServeConfig) float64 {
		cfg.Model, cfg.Params = LeNet, append([]float32(nil), params...)
		p, err := Serve(cfg)
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
		defer p.Close()
		sample := make([]float32, p.SampleVol())
		var served atomic.Int64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := p.Predict(sample); err == nil {
						served.Add(1)
					}
				}
			}()
		}
		time.Sleep(1200 * time.Millisecond)
		close(stop)
		wg.Wait()
		return float64(served.Load()) / 1.2
	}

	static := run(ServeConfig{MaxBatch: 32, MaxDelay: 2 * time.Millisecond})
	adaptive := run(ServeConfig{
		MaxBatch:     32,
		SLO:          100 * time.Millisecond,
		ControlEvery: 25 * time.Millisecond,
	})
	// Dominance with slack for CI noise: the static-32 engine pads 8-deep
	// batches to 32 and burns 4× the FLOPs, so a healthy adaptive engine
	// wins by far more than this margin.
	if adaptive < static {
		t.Errorf("adaptive served %.0f req/s, static max-batch-32 served %.0f — the batch-32 regression is back",
			adaptive, static)
	}
	t.Logf("adaptive %.0f req/s vs static-32 %.0f req/s", adaptive, static)
}
