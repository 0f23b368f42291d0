package gpusim

// completion is a kernel's retirement, scheduled in virtual time: at t the
// kernel running on st ends. A stream runs one kernel at a time, so its
// grant and duration wait on the stream and the heap moves 24 bytes an
// entry, not 40.
type completion struct {
	t   float64
	seq uint64 // tie-breaker for determinism
	st  *Stream
}

// completions is a binary min-heap of pending retirements ordered by
// (t, seq). seq is unique, so the order is total and any heap pops the same
// sequence.
type completions []completion

// before reports whether a retires before b.
func (a *completion) before(b *completion) bool {
	return a.t < b.t || a.t == b.t && a.seq < b.seq
}

func (h *completions) push(c completion) {
	*h = append(*h, c)
	h.up(len(*h)-1, c)
}

// up moves c from the hole at i towards the root to where it belongs.
func (h completions) up(i int, c completion) {
	for i > 0 {
		p := (i - 1) / 2
		if !c.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = c
}

// pop removes the earliest completion. The hole it leaves at the root sinks
// along the earlier child to a leaf and the last entry rises into it from
// there (bottom-up: one comparison a level, as the last entry rarely
// climbs far).
func (h *completions) pop() completion {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && q[c+1].before(&q[c]) {
			c++
		}
		q[i] = q[c]
		i = c
	}
	q.up(i, last)
	return top
}

// Sim is a deterministic discrete-event simulation of a multi-GPU server.
type Sim struct {
	now     float64
	seq     uint64
	heap    completions
	devices []*Device
	// marked counts the streams marked for the next drain; no device below
	// low has one.
	marked, low int
	// events is the slab NewEvent hands events out of.
	events []Event
}

// NewSim creates a simulator with n identical devices of smsPerDevice
// streaming multiprocessors each.
func NewSim(n, smsPerDevice int) *Sim {
	s := &Sim{}
	for i := 0; i < n; i++ {
		s.devices = append(s.devices, &Device{
			sim: s, ID: i, SMs: smsPerDevice, freeSMs: smsPerDevice,
		})
	}
	return s
}

// Now returns the current virtual time in microseconds.
func (s *Sim) Now() float64 { return s.now }

// NumDevices returns the device count.
func (s *Sim) NumDevices() int { return len(s.devices) }

// Device returns device i.
func (s *Sim) Device(i int) *Device { return s.devices[i] }

// NewEvent creates an unfired cross-stream synchronisation event. Events
// come out of slabs that double up to 1024 events, so a run allocates a
// handful of times however many it creates.
func (s *Sim) NewEvent() *Event {
	if len(s.events) == cap(s.events) {
		s.events = make([]Event, 0, min(1024, max(16, 2*cap(s.events))))
	}
	s.events = append(s.events, Event{})
	return &s.events[len(s.events)-1]
}

// start schedules the retirement of st's head kernel, granted grant SMs
// for dur microseconds from now.
func (s *Sim) start(st *Stream, grant int, dur float64) {
	s.seq++
	st.grant, st.dur = grant, dur
	s.heap.push(completion{t: s.now + dur, seq: s.seq, st: st})
}

// Run executes queued work until the simulation is quiescent (no stream can
// make progress and no completion is pending) and returns the virtual time.
func (s *Sim) Run() float64 {
	s.drain()
	for len(s.heap) > 0 {
		c := s.heap.pop()
		s.now = c.t
		c.st.retire()
		s.drain()
	}
	return s.now
}

// drain starts every op that can start at the current instant, looping
// until no further progress is possible (zero-duration ops such as event
// records and waits retire inline). It visits only marked streams — those
// something has happened to since they last stopped (see Stream.mark) —
// and in the order of a full sweep: device by device, each device's
// streams in creation order, each as far as it goes, repeated while a
// stream behind the sweep's position was marked. An unmarked stream cannot
// progress, so the sweep starts the same kernels in the same order, with
// the same grants and sequence numbers, as visiting every stream would.
// A pass starts at the lowest marked position and ends when no mark is
// left, so a retirement that only restarts its own stream visits that one.
func (s *Sim) drain() {
	for s.marked > 0 {
		first := s.low
		s.low = len(s.devices)
		for _, d := range s.devices[first:] {
			if d.marked == 0 {
				continue
			}
			from := d.low
			d.low = len(d.streams)
			for _, st := range d.streams[from:] {
				if !st.marked {
					continue
				}
				st.marked = false
				d.marked--
				s.marked--
				for st.step() {
				}
				if s.marked == 0 {
					return
				}
			}
		}
	}
}
