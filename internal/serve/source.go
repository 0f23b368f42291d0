package serve

import (
	"fmt"
	"sync"
	"time"

	"crossbow/internal/ckpt"
	"crossbow/internal/nn"
	"crossbow/internal/transport"
)

// resolveModel fills Model, Params and Version from the configured model
// source: the checkpoint file, then the feed. It returns the feed bridge
// with Follow set (nil otherwise), whose follower is already running.
func (c *Config) resolveModel() (*feed, error) {
	if c.Checkpoint != "" {
		saved, err := ckpt.Load(c.Checkpoint)
		if err != nil {
			return nil, fmt.Errorf("serve: loading %s: %w", c.Checkpoint, err)
		}
		if c.Model != "" && c.Model != nn.ModelID(saved.Model) {
			return nil, fmt.Errorf("serve: checkpoint %s holds %q, config says %q", c.Checkpoint, saved.Model, c.Model)
		}
		c.Model, c.Params, c.Version = nn.ModelID(saved.Model), saved.Params, saved.SnapshotRound
	}
	if c.Follow == "" {
		return nil, nil
	}
	return c.follow()
}

// feed bridges the feed follower to the engine built after it — the
// cold-start chicken-and-egg: the first snapshot names the architecture the
// engine needs, so the follower necessarily starts before the engine can.
// Until attach hands it the engine, the newest update parks in latest;
// after, updates flow straight through.
type feed struct {
	f     *transport.Follower
	first chan struct{} // closed by the first update
	once  sync.Once

	mu     sync.Mutex
	eng    *Engine
	latest *feedModel
}

type feedModel struct {
	model  nn.ModelID
	params []float32
	round  int64
}

// follow starts the follower. With a warm base (Params) it returns at once
// and the feed resumes with deltas; cold, it waits for the first snapshot,
// which then defines the model, or fails after FollowTimeout.
func (c *Config) follow() (*feed, error) {
	fd := &feed{first: make(chan struct{})}
	var warm []float32
	if c.Params != nil {
		// The follower and the engine each take ownership of their vector.
		warm = append([]float32(nil), c.Params...)
	}
	f, err := transport.Follow(c.Follow, c.Version, warm, fd.update)
	if err != nil {
		return nil, err
	}
	fd.f = f
	if c.Params != nil {
		return fd, nil
	}
	select {
	case <-fd.first:
	case <-time.After(c.FollowTimeout):
		f.Close()
		return nil, fmt.Errorf("serve: no snapshot from feed %s within %v", c.Follow, c.FollowTimeout)
	}
	fd.mu.Lock()
	m := fd.latest
	fd.latest = nil
	fd.mu.Unlock()
	if c.Model != "" && c.Model != m.model {
		f.Close()
		return nil, fmt.Errorf("serve: feed %s publishes %q, config says %q", c.Follow, m.model, c.Model)
	}
	c.Model, c.Params, c.Version = m.model, m.params, m.round
	return fd, nil
}

// update is the follower's OnUpdate. The swap runs under mu so that it and
// attach's catch-up apply rounds in order.
func (fd *feed) update(model string, params []float32, round, _ int64, _ bool) {
	fd.mu.Lock()
	if fd.eng != nil {
		fd.eng.UpdateModel(params, round) // length-checked: a foreign shape is refused
	} else {
		fd.latest = &feedModel{model: nn.ModelID(model), params: params, round: round}
	}
	fd.mu.Unlock()
	fd.once.Do(func() { close(fd.first) })
}

// attach routes every later update into e, first applying one that arrived
// while e was being built.
func (fd *feed) attach(e *Engine) {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	fd.eng = e
	if m := fd.latest; m != nil && m.round > e.Version() {
		e.UpdateModel(m.params, m.round)
	}
	fd.latest = nil
}
