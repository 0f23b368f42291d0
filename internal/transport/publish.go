package transport

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"crossbow/internal/ckpt"
	"crossbow/internal/metrics"
)

// Snapshot feed: one training-side Publisher streams published model
// snapshots to a fleet of serving-side Followers over the CBTF framing
// (DESIGN.md §16). The publisher keeps a short history of published rounds
// and sends each follower the cheapest update that provably lands it on the
// latest round: a chunk delta when the follower's acknowledged (round, CRC)
// matches a round still in history, a full checkpoint otherwise. Divergence
// is detected by CRC at both ends — a follower rejects a delta whose base
// does not match its parameters bit-for-bit, and a publisher that sees an
// acknowledgment CRC it cannot explain forces a full resync — so the fleet
// is always byte-identical to some published round, never a patched hybrid.

// PublisherConfig configures a snapshot feed's sending end.
type PublisherConfig struct {
	// Addr is the TCP listen address ("" with Listener set).
	Addr string
	// Listener optionally supplies a pre-bound listener (tests bind :0).
	Listener net.Listener
	// History is how many published rounds are retained as delta bases
	// (default 8): a follower at most History-1 rounds behind still gets a
	// delta, older ones get a full snapshot.
	History int
	// ChunkElems is the delta chunk granularity in float32 elements
	// (default ckpt.DefaultChunkElems).
	ChunkElems int
	// WriteTimeout bounds one frame write per subscriber (default 10s); a
	// follower that cannot drain an update within it is dropped and will
	// redial.
	WriteTimeout time.Duration
	// MaxPayload bounds inbound frames (default 1 MiB — hello/ack frames
	// carry no payload, so anything large is a protocol violation).
	MaxPayload int
	// DrainTimeout bounds Close's wait for followers to acknowledge
	// in-flight updates (default 3s). Closing a connection with unread
	// acks in the receive buffer resets it, which would discard snapshot
	// frames the follower has written to it but not yet read — the drain
	// guarantees a live follower ends a publisher shutdown holding the
	// final published model.
	DrainTimeout time.Duration
	// Logf receives debug lines (nil: silent).
	Logf func(format string, args ...any)
}

func (c *PublisherConfig) fillDefaults() {
	if c.History <= 0 {
		c.History = 8
	}
	if c.ChunkElems <= 0 {
		c.ChunkElems = ckpt.DefaultChunkElems
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.MaxPayload <= 0 {
		c.MaxPayload = 1 << 20
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 3 * time.Second
	}
}

// pubModel is one published round held as a potential delta base. The
// checkpoint and CRC are immutable; full/deltas are lazily-built encoding
// caches (guarded by the publisher's mu) shared across subscribers.
type pubModel struct {
	c      *ckpt.Checkpoint
	crc    uint32
	full   []byte
	deltas map[int64][]byte // fromRound → encoded delta ending at this round
}

// pubSub is one connected follower. mu serialises sends and the publisher's
// belief about the follower's state: sentRound/sentCRC is the last state we
// transmitted (optimistically assumed applied, since TCP delivers in order),
// and pending the in-flight sends not yet acknowledged. An ack matching any
// pending state is pipelining, not news; an ack the publisher cannot explain
// means the follower diverged and forces a resync.
//
// Lock order: a pubSub's mu before Publisher.mu, never the reverse. A send
// holds s.mu for the whole write and takes p.mu inside it to read history
// (sendCurrent → preparePayload), so nothing may wait for an s.mu while
// holding p.mu: code that walks the subscribers copies the list under p.mu
// (subsLocked), releases it, and only then looks at each s.mu.
type pubSub struct {
	id   int
	conn net.Conn

	mu        sync.Mutex
	helloed   bool
	sentRound int64
	sentCRC   uint32
	pending   []subState
}

type subState struct {
	round int64
	crc   uint32
}

// Publisher is the sending end of a snapshot feed.
type Publisher struct {
	cfg PublisherConfig
	ln  net.Listener

	mu     sync.Mutex // taken after any pubSub.mu; see pubSub
	subs   map[int]*pubSub
	nextID int
	hist   []*pubModel
	closed bool

	published  atomic.Int64
	fullSent   atomic.Int64
	deltaSent  atomic.Int64
	fullBytes  atomic.Int64
	deltaBytes atomic.Int64
	resyncs    atomic.Int64

	pool bufPool
	wg   sync.WaitGroup
}

// NewPublisher binds the feed's listener and starts accepting followers.
func NewPublisher(cfg PublisherConfig) (*Publisher, error) {
	cfg.fillDefaults()
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addr)
		if err != nil {
			return nil, fmt.Errorf("transport: publisher listen %s: %w", cfg.Addr, err)
		}
	}
	p := &Publisher{cfg: cfg, ln: ln, subs: make(map[int]*pubSub)}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the feed's listen address.
func (p *Publisher) Addr() string { return p.ln.Addr().String() }

// Publish offers one snapshot to the fleet. The checkpoint must carry a
// strictly increasing SnapshotRound; the publisher takes ownership of it
// (params become delta bases and must not be modified afterwards). Sends to
// slow or dead followers fail those followers only — they drop and redial.
func (p *Publisher) Publish(c *ckpt.Checkpoint) error {
	if c == nil || len(c.Params) == 0 {
		return errors.New("transport: publishing an empty checkpoint")
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	if n := len(p.hist); n > 0 {
		last := p.hist[n-1]
		if c.SnapshotRound <= last.c.SnapshotRound {
			p.mu.Unlock()
			return fmt.Errorf("transport: publish round %d after round %d (rounds must increase)",
				c.SnapshotRound, last.c.SnapshotRound)
		}
		if len(c.Params) != len(last.c.Params) || c.Model != last.c.Model {
			p.mu.Unlock()
			return fmt.Errorf("transport: published model changed shape (%q/%d → %q/%d)",
				last.c.Model, len(last.c.Params), c.Model, len(c.Params))
		}
	}
	p.hist = append(p.hist, &pubModel{c: c, crc: ckpt.ParamsCRC(c.Params)})
	if len(p.hist) > p.cfg.History {
		p.hist = p.hist[len(p.hist)-p.cfg.History:]
	}
	subs := p.subsLocked()
	p.mu.Unlock()
	p.published.Add(1)

	var wg sync.WaitGroup
	for _, s := range subs {
		wg.Add(1)
		go func(s *pubSub) {
			defer wg.Done()
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.helloed {
				if err := p.sendCurrent(s); err != nil {
					p.dropSub(s, err)
				}
			}
		}(s)
	}
	wg.Wait()
	return nil
}

// Stats snapshots the feed's counters.
func (p *Publisher) Stats() metrics.FeedStats {
	s := metrics.FeedStats{
		Published:  p.published.Load(),
		FullSent:   p.fullSent.Load(),
		DeltaSent:  p.deltaSent.Load(),
		FullBytes:  p.fullBytes.Load(),
		DeltaBytes: p.deltaBytes.Load(),
		Resyncs:    p.resyncs.Load(),
	}
	p.mu.Lock()
	s.Subscribers = len(p.subs)
	if n := len(p.hist); n > 0 {
		s.Round = p.hist[n-1].c.SnapshotRound
	}
	p.mu.Unlock()
	return s
}

// subsLocked copies the subscriber list. Caller holds p.mu, and releases it
// before touching any subscriber's mu (lock order: see pubSub).
func (p *Publisher) subsLocked() []*pubSub {
	subs := make([]*pubSub, 0, len(p.subs))
	for _, s := range p.subs {
		subs = append(subs, s)
	}
	return subs
}

// WaitSubscribers blocks until at least n followers are connected (and have
// announced themselves) or the timeout elapses, returning the count.
func (p *Publisher) WaitSubscribers(n int, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		p.mu.Lock()
		subs, closed := p.subsLocked(), p.closed
		p.mu.Unlock()
		have := 0
		for _, s := range subs {
			s.mu.Lock()
			if s.helloed {
				have++
			}
			s.mu.Unlock()
		}
		if have >= n || closed || time.Now().After(deadline) {
			return have
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Close stops the feed: the listener and every follower connection shut
// down (followers keep serving their last model and redial until a new
// publisher appears).
func (p *Publisher) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	subs := p.subsLocked()
	p.mu.Unlock()
	p.ln.Close()
	// Drain before closing connections: wait (bounded) until every follower
	// has acknowledged what was sent to it. Closing with its unread acks in
	// our receive buffer would reset the connection and discard any snapshot
	// frame still in flight toward it — a follower must end a publisher
	// shutdown holding the final published model, not the penultimate one.
	deadline := time.Now().Add(p.cfg.DrainTimeout)
	for _, s := range subs {
		for {
			s.mu.Lock()
			n := len(s.pending)
			s.mu.Unlock()
			if n == 0 || time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, s := range subs {
		s.conn.Close()
	}
	p.wg.Wait()
}

func (p *Publisher) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

func (p *Publisher) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return
		}
		s := &pubSub{id: p.nextID, conn: conn}
		p.nextID++
		p.subs[s.id] = s
		p.mu.Unlock()
		p.wg.Add(1)
		go p.serveSub(s)
	}
}

// serveSub owns one follower connection's read side: the hello that
// announces its base, then acks after every applied update.
func (p *Publisher) serveSub(s *pubSub) {
	defer p.wg.Done()
	defer p.dropSub(s, nil)
	for {
		h, payload, _, err := readFrame(s.conn, p.cfg.MaxPayload, &p.pool)
		if err != nil {
			return
		}
		p.pool.Put(payload)
		switch h.Type {
		case frameSubHello:
			s.mu.Lock()
			s.helloed = true
			s.sentRound, s.sentCRC = int64(h.Round), uint32(h.Aux)
			s.pending = nil
			err := p.sendCurrent(s)
			s.mu.Unlock()
			if err != nil {
				p.dropSub(s, err)
				return
			}
		case frameSubAck:
			// The follower reports what it actually holds. An ack matching
			// an in-flight send is pipelining — later frames will advance
			// it. Anything else (a rejected delta, a restarted follower,
			// bit rot) resets our belief and heals immediately; sendCurrent
			// falls back to a full snapshot when the CRC cannot be matched
			// to history.
			st := subState{round: int64(h.Round), crc: uint32(h.Aux)}
			s.mu.Lock()
			explained := false
			for i, pend := range s.pending {
				if pend == st {
					s.pending = s.pending[i+1:]
					explained = true
					break
				}
			}
			if !explained {
				s.sentRound, s.sentCRC = st.round, st.crc
				s.pending = nil
				if err := p.sendCurrent(s); err != nil {
					s.mu.Unlock()
					p.dropSub(s, err)
					return
				}
			}
			s.mu.Unlock()
		default:
			p.logf("feed: unexpected frame type %d from subscriber %d", h.Type, s.id)
		}
	}
}

// dropSub unregisters a follower and closes its connection.
func (p *Publisher) dropSub(s *pubSub, err error) {
	p.mu.Lock()
	_, present := p.subs[s.id]
	delete(p.subs, s.id)
	p.mu.Unlock()
	s.conn.Close()
	if present && err != nil {
		p.logf("feed: dropping subscriber %d: %v", s.id, err)
	}
}

// sendCurrent transmits whatever brings the follower from its believed
// (sentRound, sentCRC) state to the latest published round: nothing if it is
// already there, a delta if its base round is in history with a matching
// CRC, a full snapshot otherwise. Caller holds s.mu.
func (p *Publisher) sendCurrent(s *pubSub) error {
	payload, typ, sent, err := p.preparePayload(s.sentRound, s.sentCRC)
	if err != nil || typ == 0 {
		return err
	}
	s.conn.SetWriteDeadline(time.Now().Add(p.cfg.WriteTimeout))
	if _, err := writeFrame(s.conn, &header{Type: typ, Sender: uint32(s.id)}, payload); err != nil {
		return err
	}
	s.conn.SetWriteDeadline(time.Time{})
	// Record the round the payload was encoded against, not history's tail
	// as it stands now: a Publish may have landed during the write, and the
	// follower was not sent that round.
	s.sentRound, s.sentCRC = sent.c.SnapshotRound, sent.crc
	s.pending = append(s.pending, subState{round: s.sentRound, crc: s.sentCRC})
	if typ == frameSnapDelta {
		p.deltaSent.Add(1)
		p.deltaBytes.Add(int64(len(payload)))
	} else {
		p.fullSent.Add(1)
		p.fullBytes.Add(int64(len(payload)))
	}
	return nil
}

// preparePayload resolves and (lazily, cached per round pair) encodes the
// update from a believed follower state to the latest round, returning that
// round's model with the payload. typ 0 means the follower is already
// current.
func (p *Publisher) preparePayload(fromRound int64, fromCRC uint32) (payload []byte, typ byte, latest *pubModel, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.hist) == 0 {
		return nil, 0, nil, nil
	}
	latest = p.hist[len(p.hist)-1]
	if fromRound == latest.c.SnapshotRound && fromCRC == latest.crc {
		return nil, 0, nil, nil
	}
	var base *pubModel
	for _, m := range p.hist {
		if m.c.SnapshotRound == fromRound {
			base = m
			break
		}
	}
	if base != nil && base.crc != fromCRC && fromRound > 0 {
		// The follower claims a round we published but its bytes differ:
		// genuine divergence, not just a stale follower. Count the forced
		// full resync.
		p.resyncs.Add(1)
		base = nil
	}
	if base != nil && base.crc == fromCRC {
		if latest.deltas == nil {
			latest.deltas = make(map[int64][]byte)
		}
		enc, ok := latest.deltas[fromRound]
		if !ok {
			d, derr := ckpt.ComputeDelta(latest.c.Model, base.c.Params, latest.c.Params,
				fromRound, latest.c.SnapshotRound, latest.c.SnapshotIter, p.cfg.ChunkElems)
			if derr != nil {
				return nil, 0, nil, derr
			}
			var buf bytes.Buffer
			if werr := ckpt.WriteDelta(&buf, d); werr != nil {
				return nil, 0, nil, werr
			}
			enc = buf.Bytes()
			latest.deltas[fromRound] = enc
		}
		return enc, frameSnapDelta, latest, nil
	}
	if latest.full == nil {
		var buf bytes.Buffer
		if werr := ckpt.Write(&buf, latest.c); werr != nil {
			return nil, 0, nil, werr
		}
		latest.full = buf.Bytes()
	}
	return latest.full, frameSnapFull, latest, nil
}

// FollowerConfig configures a snapshot feed's receiving end.
type FollowerConfig struct {
	// Addr is the publisher's address. Required.
	Addr string
	// Round and Params optionally warm-start the follower: a replica that
	// still holds a published model announces it and receives a delta
	// instead of a full snapshot. Params ownership transfers.
	Round  int64
	Params []float32
	// OnUpdate receives every applied model: a fresh copy the receiver
	// owns, the round it represents, and whether it arrived as a full
	// snapshot. Called on the follower's goroutine, in round order.
	OnUpdate func(model string, params []float32, round, iter int64, full bool)
	// DialBackoff is the initial redial delay, doubled (with jitter) per
	// consecutive failure up to 64× (default 50ms).
	DialBackoff time.Duration
	// DialTimeout bounds one connection attempt (default 5s).
	DialTimeout time.Duration
	// MaxPayload bounds one inbound frame (default 256 MiB).
	MaxPayload int
	// Logf receives debug lines (nil: silent).
	Logf func(format string, args ...any)
}

func (c *FollowerConfig) fillDefaults() error {
	if c.Addr == "" {
		return errors.New("transport: FollowerConfig.Addr is required")
	}
	if c.DialBackoff <= 0 {
		c.DialBackoff = 50 * time.Millisecond
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.MaxPayload <= 0 {
		c.MaxPayload = 256 << 20
	}
	return nil
}

// Follower is the receiving end of a snapshot feed: it maintains a shadow
// copy of the published model, applies deltas against it (rejecting any
// whose base does not match bit-for-bit), and redials with backoff when the
// feed drops.
type Follower struct {
	cfg FollowerConfig

	mu     sync.Mutex
	cond   *sync.Cond
	params []float32 // shadow model, owned here
	model  string
	round  int64
	crc    uint32
	closed bool

	fullRecv   atomic.Int64
	deltaRecv  atomic.Int64
	fullBytes  atomic.Int64
	deltaBytes atomic.Int64
	resyncs    atomic.Int64
	redials    atomic.Int64

	stop chan struct{}
	pool bufPool
	wg   sync.WaitGroup
}

// Follow starts a follower. It returns immediately; use WaitRound to block
// until a model (of at least a given round) has been applied.
func Follow(cfg FollowerConfig) (*Follower, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	f := &Follower{cfg: cfg, stop: make(chan struct{})}
	f.cond = sync.NewCond(&f.mu)
	if len(cfg.Params) > 0 {
		f.params = cfg.Params
		f.round = cfg.Round
		f.crc = ckpt.ParamsCRC(cfg.Params)
	}
	f.wg.Add(1)
	go f.run()
	return f, nil
}

// Round returns the latest applied round (zero before any model arrived,
// unless warm-started).
func (f *Follower) Round() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.round
}

// WaitRound blocks until the follower has applied a model of at least round
// r or the timeout elapses; it reports whether the condition was met.
func (f *Follower) WaitRound(r int64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.params == nil || f.round < r {
		if f.closed || time.Now().After(deadline) {
			return false
		}
		// cond has no timed wait; poke the waiter on a timer.
		t := time.AfterFunc(10*time.Millisecond, f.cond.Broadcast)
		f.cond.Wait()
		t.Stop()
	}
	return true
}

// Stats snapshots the follower's counters.
func (f *Follower) Stats() metrics.FeedStats {
	s := metrics.FeedStats{
		FullSent:   f.fullRecv.Load(),
		DeltaSent:  f.deltaRecv.Load(),
		FullBytes:  f.fullBytes.Load(),
		DeltaBytes: f.deltaBytes.Load(),
		Resyncs:    f.resyncs.Load(),
		Redials:    f.redials.Load(),
	}
	f.mu.Lock()
	s.Round = f.round
	s.Published = f.fullRecv.Load() + f.deltaRecv.Load()
	f.mu.Unlock()
	return s
}

// Close stops following. The last applied model remains with whoever
// received it via OnUpdate.
func (f *Follower) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		f.wg.Wait()
		return
	}
	f.closed = true
	close(f.stop)
	f.cond.Broadcast()
	f.mu.Unlock()
	f.wg.Wait()
}

func (f *Follower) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// run is the dial/receive loop.
func (f *Follower) run() {
	defer f.wg.Done()
	backoff := f.cfg.DialBackoff
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		conn, err := net.DialTimeout("tcp", f.cfg.Addr, f.cfg.DialTimeout)
		if err != nil {
			f.redials.Add(1)
			wait := backoff + time.Duration(rng.Int63n(int64(backoff)/2+1))
			if backoff < 64*f.cfg.DialBackoff {
				backoff *= 2
			}
			select {
			case <-f.stop:
				return
			case <-time.After(wait):
			}
			continue
		}
		backoff = f.cfg.DialBackoff
		f.serve(conn)
		conn.Close()
	}
}

// serve drains one connection: hello, then updates until it dies. A closing
// follower interrupts the blocking read by closing the connection.
func (f *Follower) serve(conn net.Conn) {
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-f.stop:
			conn.Close()
		case <-done:
		}
	}()

	f.mu.Lock()
	hello := &header{Type: frameSubHello, Round: uint64(f.round), Aux: uint64(f.crc)}
	f.mu.Unlock()
	if _, err := writeFrame(conn, hello, nil); err != nil {
		return
	}
	for {
		h, payload, _, err := readFrame(conn, f.cfg.MaxPayload, &f.pool)
		if err != nil {
			select {
			case <-f.stop:
			default:
				f.redials.Add(1)
				f.logf("follower: feed lost: %v", err)
			}
			return
		}
		raw := f32Bytes(payload)[:h.Length]
		switch h.Type {
		case frameSnapFull:
			c, cerr := ckpt.Read(bytes.NewReader(raw))
			f.pool.Put(payload)
			if cerr != nil {
				f.logf("follower: bad full snapshot: %v", cerr)
				return
			}
			f.fullRecv.Add(1)
			f.fullBytes.Add(int64(h.Length))
			f.apply(c.Model, c.Params, c.SnapshotRound, c.SnapshotIter, ckpt.ParamsCRC(c.Params), true)
		case frameSnapDelta:
			d, derr := ckpt.ReadDelta(bytes.NewReader(raw))
			f.pool.Put(payload)
			if derr != nil {
				f.logf("follower: bad delta: %v", derr)
				return
			}
			f.deltaRecv.Add(1)
			f.deltaBytes.Add(int64(h.Length))
			f.mu.Lock()
			shadow := f.params
			f.mu.Unlock()
			if shadow == nil {
				f.resyncs.Add(1)
				f.ack(conn) // our (0, 0) state tells the publisher to go full
				continue
			}
			if aerr := d.Apply(shadow); aerr != nil {
				// Base mismatch: we diverged from what the publisher
				// believes. Re-announce our true state; the publisher
				// answers with a full snapshot.
				f.resyncs.Add(1)
				f.logf("follower: delta rejected: %v", aerr)
				f.ack(conn)
				continue
			}
			f.apply(d.Model, shadow, d.ToRound, d.ToIter, d.FullCRC, false)
		default:
			f.pool.Put(payload)
			f.logf("follower: unexpected frame type %d", h.Type)
		}
		if err := f.ack(conn); err != nil {
			return
		}
	}
}

// apply installs a new shadow model and hands the subscriber its own copy.
func (f *Follower) apply(model string, params []float32, round, iter int64, crc uint32, full bool) {
	f.mu.Lock()
	f.model = model
	f.params = params
	f.round = round
	f.crc = crc
	f.cond.Broadcast()
	f.mu.Unlock()
	if f.cfg.OnUpdate != nil {
		f.cfg.OnUpdate(model, append([]float32(nil), params...), round, iter, full)
	}
}

// ack reports the follower's actual state after every inbound frame — the
// publisher's only ground truth about this replica.
func (f *Follower) ack(conn net.Conn) error {
	f.mu.Lock()
	h := &header{Type: frameSubAck, Round: uint64(f.round), Aux: uint64(f.crc)}
	f.mu.Unlock()
	_, err := writeFrame(conn, h, nil)
	return err
}
