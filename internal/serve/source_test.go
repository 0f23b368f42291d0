package serve

import (
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"crossbow/internal/ckpt"
	"crossbow/internal/nn"
	"crossbow/internal/tensor"
	"crossbow/internal/transport"
)

func lenetParams(seed uint64) []float32 {
	return nn.BuildScaled(nn.LeNet, 1, tensor.NewRNG(1)).Init(tensor.NewRNG(seed))
}

// TestCheckpointSource: New loads a checkpoint itself, serves its model at
// its snapshot round, and refuses a second source or a contradicting Model.
func TestCheckpointSource(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.ckpt")
	if err := ckpt.Save(path, &ckpt.Checkpoint{Model: string(nn.LeNet), SnapshotRound: 5, Params: lenetParams(2)}); err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	if e.Model() != nn.LeNet || e.Version() != 5 {
		t.Errorf("serving %q at version %d, want lenet at the snapshot round 5", e.Model(), e.Version())
	}
	e.Close()

	for name, cfg := range map[string]Config{
		"no source":          {Model: nn.LeNet},
		"params+checkpoint":  {Checkpoint: path, Params: lenetParams(2)},
		"contradicted model": {Checkpoint: path, Model: nn.ResNet32},
		"missing file":       {Checkpoint: filepath.Join(t.TempDir(), "none.ckpt")},
	} {
		if e, err := New(cfg); err == nil {
			e.Close()
			t.Errorf("%s: New accepted %+v", name, cfg)
		}
	}
}

// TestFollowSource: a cold follower takes its model from the feed's first
// snapshot, swaps in every later one, and reports the feed's traffic; a
// feed that never answers fails New after FollowTimeout.
func TestFollowSource(t *testing.T) {
	pub, err := transport.NewPublisher("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Publish(&ckpt.Checkpoint{Model: string(nn.LeNet), SnapshotRound: 3, Params: lenetParams(2)}); err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Follow: pub.Addr(), FollowTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Model() != nn.LeNet || e.Version() != 3 {
		t.Fatalf("cold follower serves %q at version %d, want lenet at round 3", e.Model(), e.Version())
	}
	if err := pub.Publish(&ckpt.Checkpoint{Model: string(nn.LeNet), SnapshotRound: 4, Params: lenetParams(3)}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); e.Version() != 4; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("engine stuck at version %d after round 4 was published", e.Version())
		}
	}
	if fs := e.FeedStats(); fs.FullSent != 1 || fs.DeltaSent != 1 {
		t.Errorf("feed stats %+v, want one full snapshot and one delta", fs)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close() // accepts nothing: dials succeed, no snapshot ever comes
	start := time.Now()
	if e, err := New(Config{Follow: ln.Addr().String(), FollowTimeout: 50 * time.Millisecond}); err == nil {
		e.Close()
		t.Fatal("New returned without a snapshot")
	} else if !strings.Contains(err.Error(), ln.Addr().String()) {
		t.Errorf("error %q does not name the feed", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("cold start gave up after %v, FollowTimeout is 50ms", took)
	}
}
