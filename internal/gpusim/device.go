package gpusim

// ThrashPenalty is the fractional slow-down a kernel suffers when granted
// none of its requested SMs (linearly interpolated above that): the cost of
// oversubscribing a device with more concurrent work than it has
// multiprocessors.
const ThrashPenalty = 0.35

// Device is a simulated GPU: a pool of streaming multiprocessors shared by
// any number of streams. Kernels request SMs; while SMs remain, kernels
// from different streams execute concurrently — the property Crossbow's
// task engine exploits to co-locate learners on one GPU (§4.3).
type Device struct {
	sim *Sim
	// ID is the device index.
	ID int
	// SMs is the total number of streaming multiprocessors.
	SMs     int
	freeSMs int
	streams []*Stream

	// Busy accumulates SM-microseconds of executed kernel work, for
	// utilisation accounting: utilisation = Busy / (SMs × elapsed).
	Busy float64
}

// NewStream creates an in-order command stream on the device. name is for
// debugging.
func (d *Device) NewStream(name string) *Stream {
	st := &Stream{dev: d, name: name}
	d.streams = append(d.streams, st)
	return st
}

// drain advances every stream as far as possible at the current instant.
// Returns whether any progress was made.
func (d *Device) drain() bool {
	progress := false
	for _, st := range d.streams {
		for st.step() {
			progress = true
		}
	}
	return progress
}

// opKind discriminates stream operations.
type opKind int

const (
	opKernel opKind = iota
	opRecord
	opWait
	opCallback
)

type op struct {
	kind opKind
	name string
	sms  int
	dur  float64
	ev   *Event
	fn   func(now float64)
}

// Stream is an in-order queue of device work. Ops on one stream execute
// sequentially; ops on different streams may execute concurrently when SMs
// allow (mirroring CUDA stream semantics, §2.2).
type Stream struct {
	dev     *Device
	name    string
	queue   []op
	running bool // head kernel currently executing
}

// Name returns the stream's debug name.
func (st *Stream) Name() string { return st.name }

// Device returns the stream's device.
func (st *Stream) Device() *Device { return st.dev }

// Kernel enqueues a compute kernel needing sms multiprocessors for dur
// microseconds. sms is clamped to the device size; non-positive durations
// retire instantly.
func (st *Stream) Kernel(name string, sms int, dur float64) {
	if sms < 1 {
		sms = 1
	}
	if sms > st.dev.SMs {
		sms = st.dev.SMs
	}
	if dur < 0 {
		dur = 0
	}
	st.queue = append(st.queue, op{kind: opKernel, name: name, sms: sms, dur: dur})
}

// Record enqueues an event-record: the event fires when all prior ops on
// this stream have completed.
func (st *Stream) Record(ev *Event) {
	st.queue = append(st.queue, op{kind: opRecord, ev: ev})
}

// Wait enqueues an event-wait: subsequent ops on this stream stall until
// the event has fired.
func (st *Stream) Wait(ev *Event) {
	st.queue = append(st.queue, op{kind: opWait, ev: ev})
}

// OnComplete enqueues a host callback invoked (in virtual time) when all
// prior ops on this stream have completed. The task manager uses these as
// task-completion events (§4.1 step 4).
func (st *Stream) OnComplete(fn func(now float64)) {
	st.queue = append(st.queue, op{kind: opCallback, fn: fn})
}

// step tries to retire or start the head op. Returns true on progress.
func (st *Stream) step() bool {
	if st.running || len(st.queue) == 0 {
		return false
	}
	head := &st.queue[0]
	switch head.kind {
	case opWait:
		if !head.ev.fired {
			head.ev.subscribe(st)
			return false
		}
		st.queue = st.queue[1:]
		return true
	case opRecord:
		ev := head.ev
		st.queue = st.queue[1:]
		ev.fire()
		return true
	case opCallback:
		fn := head.fn
		st.queue = st.queue[1:]
		fn(st.dev.sim.now)
		return true
	case opKernel:
		if st.dev.freeSMs < 1 {
			return false
		}
		// Elastic SM grant: a kernel takes as many of its requested SMs
		// as are free and runs proportionally longer on fewer — modelling
		// the GPU's intra-kernel time-slicing. This keeps the device
		// work-conserving: at saturation, aggregate FLOP throughput
		// equals capacity regardless of how kernels pack.
		grant := head.sms
		if grant > st.dev.freeSMs {
			grant = st.dev.freeSMs
		}
		dur := head.dur * float64(head.sms) / float64(grant)
		if grant < head.sms {
			// Oversubscription is not free: squeezed kernels lose cache
			// locality and scheduling efficiency, so a device packed past
			// its capacity slows down slightly — the over-parallelisation
			// regime of Alg 2 line 7 / Figure 14, where adding learners
			// reduces throughput.
			dur *= 1 + ThrashPenalty*(1-float64(grant)/float64(head.sms))
		}
		st.dev.freeSMs -= grant
		st.running = true
		st.dev.sim.after(dur, func() {
			st.dev.freeSMs += grant
			st.dev.Busy += float64(grant) * dur
			st.running = false
			st.queue = st.queue[1:]
		})
		return true
	}
	return false
}

// Event is a cross-stream synchronisation primitive (publish/subscribe, as
// in CUDA events): Record on one stream fires it; Wait on other streams
// blocks until fired. Events are single-shot.
type Event struct {
	fired   bool
	waiters []*Stream
}

func (e *Event) subscribe(st *Stream) {
	for _, w := range e.waiters {
		if w == st {
			return
		}
	}
	e.waiters = append(e.waiters, st)
}

func (e *Event) fire() {
	if e.fired {
		return
	}
	e.fired = true
	e.waiters = nil // drain() revisits all streams anyway
}
