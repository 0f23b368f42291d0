package transport

import (
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"crossbow/internal/ckpt"
)

func feedParams(n int, seed int64) []float32 {
	r := rand.New(rand.NewSource(seed))
	p := make([]float32, n)
	for i := range p {
		p[i] = float32(r.NormFloat64())
	}
	return p
}

func mutated(base []float32, seed int64) []float32 {
	next := append([]float32(nil), base...)
	r := rand.New(rand.NewSource(seed))
	// Touch ~2% of the vector in a few contiguous runs, like one layer's
	// worth of an SGD step.
	run := len(base) / 100
	if run < 1 {
		run = 1
	}
	for k := 0; k < 2; k++ {
		off := r.Intn(len(base) - run)
		for j := 0; j < run; j++ {
			next[off+j] += float32(r.NormFloat64())
		}
	}
	return next
}

func snapAt(params []float32, round int64) *ckpt.Checkpoint {
	return &ckpt.Checkpoint{
		Model:         "resnet32",
		SnapshotRound: round,
		SnapshotIter:  round * 10,
		Params:        params,
	}
}

type feedSink struct {
	mu      sync.Mutex
	params  []float32
	round   int64
	fulls   int
	deltas  int
	updates int
}

func (s *feedSink) onUpdate(model string, params []float32, round, iter int64, full bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.params = params
	s.round = round
	s.updates++
	if full {
		s.fulls++
	} else {
		s.deltas++
	}
}

func (s *feedSink) state() (round int64, fulls, deltas int, params []float32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.round, s.fulls, s.deltas, s.params
}

// await returns the sink's counters and model once OnUpdate has delivered
// round r. Follower.WaitRound is not that event: it returns as soon as the
// follower holds the round, which is before the callback runs.
func (s *feedSink) await(t *testing.T, r int64) (fulls, deltas int, params []float32) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		round, fulls, deltas, params := s.state()
		if round >= r {
			return fulls, deltas, params
		}
		if time.Now().After(deadline) {
			t.Fatalf("sink never saw round %d (at %d)", r, round)
		}
	}
}

func bitIdentical(t *testing.T, got, want []float32, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: params[%d] = %x, want %x", ctx, i,
				math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestFeedConvergence is the happy path: two cold followers join a feed,
// receive one full snapshot each, then track several published rounds via
// deltas over a vector of 17 chunks (the last one partial), ending
// bit-identical to the publisher's latest model.
func TestFeedConvergence(t *testing.T) {
	pub, err := NewPublisher("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	const n = 16*feedChunkElems + 37
	cur := feedParams(n, 1)
	if err := pub.Publish(snapAt(cur, 1)); err != nil {
		t.Fatal(err)
	}

	sinks := [2]feedSink{}
	fols := [2]*Follower{}
	for i := range fols {
		f, err := Follow(pub.Addr(), 0, nil, sinks[i].onUpdate)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		fols[i] = f
	}
	for i, f := range fols {
		if !f.WaitRound(1, 5*time.Second) {
			t.Fatalf("follower %d never reached round 1", i)
		}
	}

	for round := int64(2); round <= 5; round++ {
		cur = mutated(cur, round)
		if err := pub.Publish(snapAt(append([]float32(nil), cur...), round)); err != nil {
			t.Fatal(err)
		}
	}
	for i, f := range fols {
		if !f.WaitRound(5, 5*time.Second) {
			t.Fatalf("follower %d stuck at round %d", i, f.Round())
		}
	}
	for i := range sinks {
		fulls, deltas, params := sinks[i].await(t, 5)
		if fulls != 1 {
			t.Errorf("follower %d: %d full snapshots, want exactly 1 (cold join)", i, fulls)
		}
		if deltas != 4 {
			t.Errorf("follower %d: %d deltas, want 4", i, deltas)
		}
		bitIdentical(t, params, cur, "follower")
	}

	ps := pub.Stats()
	if ps.Subscribers != 2 || ps.Published != 5 || ps.Round != 5 {
		t.Errorf("publisher stats %+v, want 2 subscribers, 5 published, round 5", ps)
	}
	if ps.FullSent != 2 || ps.DeltaSent != 8 {
		t.Errorf("publisher sent %d full / %d delta, want 2 / 8", ps.FullSent, ps.DeltaSent)
	}
	if ps.DeltaBytes/ps.DeltaSent >= ps.FullBytes/ps.FullSent {
		t.Errorf("mean delta payload %d not smaller than mean full payload %d",
			ps.DeltaBytes/ps.DeltaSent, ps.FullBytes/ps.FullSent)
	}
	if ps.Resyncs != 0 {
		t.Errorf("unexpected resyncs: %d", ps.Resyncs)
	}
}

// TestFeedRejoin covers the two rejoin paths: a follower that died and
// comes back warm (still holding a published round) must be healed with a
// delta; one that comes back cold (empty params) needs a full snapshot.
func TestFeedRejoin(t *testing.T) {
	pub, err := NewPublisher("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	const n = 4 * feedChunkElems
	cur := feedParams(n, 7)
	if err := pub.Publish(snapAt(cur, 1)); err != nil {
		t.Fatal(err)
	}

	var sink feedSink
	f, err := Follow(pub.Addr(), 0, nil, sink.onUpdate)
	if err != nil {
		t.Fatal(err)
	}
	if !f.WaitRound(1, 5*time.Second) {
		t.Fatal("follower never got the first snapshot")
	}
	_, _, held := sink.await(t, 1)
	f.Close() // the replica "dies", keeping its last model

	// The fleet moves on while it is gone — but stays within the history.
	cur = mutated(cur, 100)
	if err := pub.Publish(snapAt(append([]float32(nil), cur...), 2)); err != nil {
		t.Fatal(err)
	}

	// Warm rejoin: announces round 1 + CRC, must be healed by delta alone.
	var warm feedSink
	f2, err := Follow(pub.Addr(), 1, append([]float32(nil), held...), warm.onUpdate)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if !f2.WaitRound(2, 5*time.Second) {
		t.Fatal("warm rejoin never reached round 2")
	}
	fulls, deltas, params := warm.await(t, 2)
	if fulls != 0 || deltas != 1 {
		t.Errorf("warm rejoin got %d full / %d delta, want 0 / 1", fulls, deltas)
	}
	bitIdentical(t, params, cur, "warm rejoin")

	// Cold rejoin: no params at all, must get a full snapshot.
	var cold feedSink
	f3, err := Follow(pub.Addr(), 0, nil, cold.onUpdate)
	if err != nil {
		t.Fatal(err)
	}
	defer f3.Close()
	if !f3.WaitRound(2, 5*time.Second) {
		t.Fatal("cold rejoin never reached round 2")
	}
	fulls, deltas, params = cold.await(t, 2)
	if fulls != 1 || deltas != 0 {
		t.Errorf("cold rejoin got %d full / %d delta, want 1 / 0", fulls, deltas)
	}
	bitIdentical(t, params, cur, "cold rejoin")
}

// TestFeedDivergenceResync is the safety pin: a follower whose model has
// silently diverged (its CRC no longer matches any published round) must be
// force-fed a full snapshot, never a delta patched onto a bad base, and end
// bit-identical anyway.
func TestFeedDivergenceResync(t *testing.T) {
	pub, err := NewPublisher("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	const n = 4 * feedChunkElems
	cur := feedParams(n, 9)
	if err := pub.Publish(snapAt(cur, 1)); err != nil {
		t.Fatal(err)
	}

	// A replica claiming round 1 but holding corrupted bytes.
	bad := append([]float32(nil), cur...)
	bad[42] += 1
	var sink feedSink
	f, err := Follow(pub.Addr(), 1, bad, sink.onUpdate)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	cur = mutated(cur, 11)
	if err := pub.Publish(snapAt(append([]float32(nil), cur...), 2)); err != nil {
		t.Fatal(err)
	}
	if !f.WaitRound(2, 5*time.Second) {
		t.Fatal("diverged follower never resynced to round 2")
	}
	fulls, _, params := sink.await(t, 2)
	if fulls == 0 {
		t.Error("diverged follower was healed without a full snapshot")
	}
	bitIdentical(t, params, cur, "resynced follower")
	if pub.Stats().Resyncs == 0 {
		t.Error("publisher did not count the forced resync")
	}
}

// TestFeedLapsedHistory: a follower too far behind (its round evicted from
// the publisher's history ring) falls back to a full snapshot.
func TestFeedLapsedHistory(t *testing.T) {
	pub, err := NewPublisher("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	// Two rounds more than the history holds: round 1 and 2 are evicted.
	const n, last = 2 * feedChunkElems, feedHistory + 2
	cur := feedParams(n, 13)
	held := append([]float32(nil), cur...)
	if err := pub.Publish(snapAt(cur, 1)); err != nil {
		t.Fatal(err)
	}
	for round := int64(2); round <= last; round++ {
		cur = mutated(cur, round)
		if err := pub.Publish(snapAt(append([]float32(nil), cur...), round)); err != nil {
			t.Fatal(err)
		}
	}

	var sink feedSink
	f, err := Follow(pub.Addr(), 1, held, sink.onUpdate) // round 1: evicted
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !f.WaitRound(last, 5*time.Second) {
		t.Fatal("lapsed follower never caught up")
	}
	fulls, deltas, params := sink.await(t, last)
	if fulls != 1 || deltas != 0 {
		t.Errorf("lapsed follower got %d full / %d delta, want 1 / 0", fulls, deltas)
	}
	bitIdentical(t, params, cur, "lapsed follower")
	if pub.Stats().Resyncs != 0 {
		t.Errorf("history miss counted as divergence resync: %d", pub.Stats().Resyncs)
	}
}

// TestFeedPublishValidation pins the publisher's input contract.
func TestFeedPublishValidation(t *testing.T) {
	pub, err := NewPublisher("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	if err := pub.Publish(&ckpt.Checkpoint{Model: "m"}); err == nil {
		t.Error("empty checkpoint accepted")
	}
	if err := pub.Publish(snapAt(feedParams(64, 1), 5)); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(snapAt(feedParams(64, 2), 5)); err == nil {
		t.Error("non-increasing round accepted")
	}
	if err := pub.Publish(snapAt(feedParams(32, 3), 6)); err == nil {
		t.Error("shape change accepted")
	}
	pub.Close()
	if err := pub.Publish(snapAt(feedParams(64, 4), 7)); err == nil {
		t.Error("publish after Close accepted")
	}
}

// TestFollowerRedial: a follower started before its publisher exists keeps
// redialing and converges once the publisher appears.
func TestFollowerRedial(t *testing.T) {
	// Reserve an address, then close it so the first dials fail.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var sink feedSink
	f, err := Follow(addr, 0, nil, sink.onUpdate)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	time.Sleep(2 * dialBackoff) // let it fail a dial or two

	pub, err := NewPublisher(addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer pub.Close()
	params := feedParams(512, 21)
	if err := pub.Publish(snapAt(params, 3)); err != nil {
		t.Fatal(err)
	}
	if !f.WaitRound(3, 10*time.Second) {
		t.Fatal("follower never converged after publisher came up")
	}
	if f.Stats().Redials == 0 {
		t.Error("redial counter never moved")
	}
	_, _, got := sink.await(t, 3)
	bitIdentical(t, got, params, "redialed follower")
}

// TestPublisherLockOrder hammers the calls that walk the subscriber list
// (WaitSubscribers, Stats) against the traffic that holds one subscriber's
// mu while taking the publisher's: hellos and acks (serveSub → sendCurrent
// → preparePayload) and the Publish fan-out. The order is s.mu before p.mu;
// WaitSubscribers used to wait for each s.mu with p.mu held, and the two
// parked each other for good. The deadline turns a relapse into a failure
// with the goroutines' stacks instead of a suite timeout.
func TestPublisherLockOrder(t *testing.T) {
	const n, rounds = 4 * feedChunkElems, 60
	pub, err := NewPublisher("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		cur := feedParams(n, 1)
		if err := pub.Publish(snapAt(cur, 1)); err != nil {
			t.Error(err)
		}

		// Two real followers keep acks flowing (and must end on the last
		// round); two raw connections send hello after hello, each answered
		// with a full snapshot under the subscriber's mu.
		var sinks [2]feedSink
		var fols [2]*Follower
		for i := range fols {
			f, err := Follow(pub.Addr(), 0, nil, sinks[i].onUpdate)
			if err != nil {
				t.Error(err)
				return
			}
			fols[i] = f
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			conn, err := net.Dial("tcp", pub.Addr())
			if err != nil {
				t.Error(err)
				continue
			}
			wg.Add(2)
			go func() { // drain the snapshots until the writer closes conn
				defer wg.Done()
				var pool bufPool
				for {
					_, payload, _, err := readFrame(conn, followMaxPayload, &pool)
					if err != nil {
						return
					}
					pool.Put(payload)
				}
			}()
			go func() {
				defer wg.Done()
				defer conn.Close()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := writeFrame(conn, &header{Type: frameSubHello}, nil); err != nil {
						return
					}
				}
			}()
		}
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					pub.WaitSubscribers(1<<30, 0) // one walk, never satisfied
					pub.Stats()
				}
			}()
		}
		for round := int64(2); round <= rounds; round++ {
			cur = mutated(cur, round)
			if err := pub.Publish(snapAt(append([]float32(nil), cur...), round)); err != nil {
				t.Error(err)
			}
		}
		close(stop)
		wg.Wait()
		for i, f := range fols {
			if !f.WaitRound(rounds, 10*time.Second) {
				t.Errorf("follower %d stuck at round %d of %d", i, f.Round(), rounds)
			}
			f.Close()
		}
		pub.Close()
	}()

	select {
	case <-done:
	case <-time.After(60 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("publisher traffic did not finish — lock-order deadlock?\n%s", buf[:runtime.Stack(buf, true)])
	}
}
