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

// The feed's fixed settings: its callers set only the addresses (and a
// follower's warm base), so every publisher and follower runs with these.
const (
	// feedHistory is how many published rounds a publisher retains as delta
	// bases: a follower at most feedHistory-1 rounds behind still gets a
	// delta, an older one a full snapshot.
	feedHistory = 8
	// feedChunkElems is the delta chunk granularity in float32 elements.
	feedChunkElems = ckpt.DefaultChunkElems
	// feedWriteTimeout bounds one frame write per subscriber; a follower
	// that cannot drain an update within it is dropped and will redial.
	feedWriteTimeout = 10 * time.Second
	// pubMaxPayload bounds a publisher's inbound frames: hello and ack
	// frames carry no payload, so anything large is a protocol violation.
	pubMaxPayload = 1 << 20
	// followMaxPayload bounds a follower's inbound frame (one snapshot).
	followMaxPayload = 256 << 20
	// feedDrainTimeout bounds Close's wait for followers to acknowledge
	// in-flight updates (Close says why it waits).
	feedDrainTimeout = 3 * time.Second
	// dialBackoff is a follower's initial redial delay, doubled (with
	// jitter) per consecutive failure up to 64×; dialTimeout bounds one
	// connection attempt.
	dialBackoff = 50 * time.Millisecond
	dialTimeout = 5 * time.Second
)

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
	ln net.Listener

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

// NewPublisher binds the feed's listener on addr (host:port; port 0 picks
// one, read it back with Addr) and starts accepting followers.
func NewPublisher(addr string) (*Publisher, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: publisher listen %s: %w", addr, err)
	}
	p := &Publisher{ln: ln, subs: make(map[int]*pubSub)}
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
	if len(p.hist) > feedHistory {
		p.hist = p.hist[len(p.hist)-feedHistory:]
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
					p.dropSub(s)
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
	deadline := time.Now().Add(feedDrainTimeout)
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
	defer p.dropSub(s)
	for {
		h, payload, _, err := readFrame(s.conn, pubMaxPayload, &p.pool)
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
				p.dropSub(s)
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
					p.dropSub(s)
					return
				}
			}
			s.mu.Unlock()
		}
	}
}

// dropSub unregisters a follower and closes its connection.
func (p *Publisher) dropSub(s *pubSub) {
	p.mu.Lock()
	delete(p.subs, s.id)
	p.mu.Unlock()
	s.conn.Close()
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
	s.conn.SetWriteDeadline(time.Now().Add(feedWriteTimeout))
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
				fromRound, latest.c.SnapshotRound, latest.c.SnapshotIter, feedChunkElems)
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

// Follower is the receiving end of a snapshot feed: it maintains a shadow
// copy of the published model, applies deltas against it (rejecting any
// whose base does not match bit-for-bit), and redials with backoff when the
// feed drops.
type Follower struct {
	addr     string
	onUpdate func(model string, params []float32, round, iter int64, full bool)

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

// Follow starts a follower of the publisher at addr. It returns
// immediately; use WaitRound to block until a model (of at least a given
// round) has been applied.
//
// round and params optionally warm-start the follower: a replica that still
// holds a published model announces it and receives a delta instead of a
// full snapshot. params ownership transfers. onUpdate (nil: none) receives
// every applied model — a fresh copy the receiver owns, the round it
// represents, and whether it arrived as a full snapshot — on the follower's
// goroutine, in round order.
func Follow(addr string, round int64, params []float32, onUpdate func(model string, params []float32, round, iter int64, full bool)) (*Follower, error) {
	if addr == "" {
		return nil, errors.New("transport: Follow needs the publisher's address")
	}
	f := &Follower{addr: addr, onUpdate: onUpdate, stop: make(chan struct{})}
	f.cond = sync.NewCond(&f.mu)
	if len(params) > 0 {
		f.params = params
		f.round = round
		f.crc = ckpt.ParamsCRC(params)
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

// run is the dial/receive loop.
func (f *Follower) run() {
	defer f.wg.Done()
	backoff := dialBackoff
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		conn, err := net.DialTimeout("tcp", f.addr, dialTimeout)
		if err != nil {
			f.redials.Add(1)
			wait := backoff + time.Duration(rng.Int63n(int64(backoff)/2+1))
			if backoff < 64*dialBackoff {
				backoff *= 2
			}
			select {
			case <-f.stop:
				return
			case <-time.After(wait):
			}
			continue
		}
		backoff = dialBackoff
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
		h, payload, _, err := readFrame(conn, followMaxPayload, &f.pool)
		if err != nil {
			select {
			case <-f.stop:
			default:
				f.redials.Add(1)
			}
			return
		}
		raw := f32Bytes(payload)[:h.Length]
		switch h.Type {
		case frameSnapFull:
			c, cerr := ckpt.Read(bytes.NewReader(raw))
			f.pool.Put(payload)
			if cerr != nil {
				return
			}
			f.fullRecv.Add(1)
			f.fullBytes.Add(int64(h.Length))
			f.apply(c.Model, c.Params, c.SnapshotRound, c.SnapshotIter, ckpt.ParamsCRC(c.Params), true)
		case frameSnapDelta:
			d, derr := ckpt.ReadDelta(bytes.NewReader(raw))
			f.pool.Put(payload)
			if derr != nil {
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
			if d.Apply(shadow) != nil {
				// Base mismatch: we diverged from what the publisher
				// believes. Re-announce our true state; the publisher
				// answers with a full snapshot.
				f.resyncs.Add(1)
				f.ack(conn)
				continue
			}
			f.apply(d.Model, shadow, d.ToRound, d.ToIter, d.FullCRC, false)
		default:
			f.pool.Put(payload)
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
	if f.onUpdate != nil {
		f.onUpdate(model, append([]float32(nil), params...), round, iter, full)
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
