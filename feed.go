package crossbow

import (
	"time"

	"crossbow/internal/metrics"
	"crossbow/internal/transport"
)

// FeedStats counts a model feed's traffic from one end's point of view —
// full snapshots vs deltas, their payload bytes, and divergence resyncs. See
// ModelPublisher.Stats and Predictor.FeedStats.
type FeedStats = metrics.FeedStats

// ModelPublisher streams published training snapshots to serving replicas
// over TCP (DESIGN.md §16): each Publish fans out to every connected
// follower as a versioned delta against the round the follower already
// holds, falling back to a full snapshot for cold or diverged followers.
// Followers are Predictors started with ServeConfig.Follow (or
// crossbow serve -follow).
//
// The training side is one callback:
//
//	mp, _ := crossbow.NewModelPublisher(":9090")
//	defer mp.Close()
//	cfg.PublishEvery = 100
//	cfg.OnSnapshot = func(s crossbow.Snapshot) { mp.Publish(s) }
//
// or, equivalently, Config.PublishAddr which wires exactly this up inside
// Train.
type ModelPublisher struct {
	pub *transport.Publisher
}

// NewModelPublisher starts a model feed listening on addr (host:port; an
// empty host binds all interfaces, port 0 picks one — read it back with
// Addr).
func NewModelPublisher(addr string) (*ModelPublisher, error) {
	pub, err := transport.NewPublisher(addr)
	if err != nil {
		return nil, err
	}
	return &ModelPublisher{pub: pub}, nil
}

// Addr returns the listen address, with the real port when 0 was asked for.
func (mp *ModelPublisher) Addr() string { return mp.pub.Addr() }

// Publish fans a snapshot out to every connected follower. Snapshots must
// arrive in strictly increasing Round order (Config.OnSnapshot delivers them
// that way). The snapshot's params are copied; the caller keeps ownership.
func (mp *ModelPublisher) Publish(s Snapshot) error {
	c := snapshotCheckpoint(s)
	c.Params = append([]float32(nil), s.Params...)
	return mp.pub.Publish(c)
}

// WaitSubscribers blocks until at least n followers are connected or the
// timeout passes, returning the count seen; handy in tests and scripted
// rollouts that must not publish into the void.
func (mp *ModelPublisher) WaitSubscribers(n int, timeout time.Duration) int {
	return mp.pub.WaitSubscribers(n, timeout)
}

// Stats reports feed traffic so far: snapshots published, deltas vs fulls
// sent, payload bytes of each, live subscriber count, and resyncs.
func (mp *ModelPublisher) Stats() FeedStats { return mp.pub.Stats() }

// Close disconnects all followers and stops the feed. Followers keep
// serving their last applied model and redial with backoff, so a publisher
// restart (with History rounds of overlap) resumes delta service.
func (mp *ModelPublisher) Close() { mp.pub.Close() }
