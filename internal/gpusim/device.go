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
	// marked counts this device's streams marked for the next drain; no
	// stream below index low has a mark.
	marked, low int

	// Busy accumulates SM-microseconds of executed kernel work, for
	// utilisation accounting: utilisation = Busy / (SMs × elapsed).
	Busy float64
}

// NewStream creates an in-order command stream on the device.
func (d *Device) NewStream() *Stream {
	st := &Stream{dev: d, idx: len(d.streams)}
	d.streams = append(d.streams, st)
	return st
}

// opKind discriminates stream operations.
type opKind int

const (
	opKernel opKind = iota
	opTask          // a learning task: its plan's kernels, one after another
	opRecord
	opWait
)

type op struct {
	kind opKind
	sms  int
	dur  float64
	ev   *Event
	plan *LearningTaskPlan
}

// Stream is an in-order queue of device work. Ops on one stream execute
// sequentially; ops on different streams may execute concurrently when SMs
// allow (mirroring CUDA stream semantics, §2.2).
type Stream struct {
	dev *Device
	idx int // position among the device's streams
	// queue[head:] is the work not yet retired; the queue rewinds to its
	// start whenever it empties, so steady enqueueing reuses its array.
	queue []op
	head  int
	// pos is the next kernel of the head op's plan when it is a task.
	pos     int
	running bool // head kernel currently executing
	// grant and dur are the running kernel's SMs and duration.
	grant int
	dur   float64
	// marked is set when the stream may be able to progress: its kernel
	// retired, the event it waits on fired, SMs freed up on its device
	// while it was starved, or work arrived on its empty queue.
	marked bool
	// awaiting is the unfired event the head op waits on once the stream
	// has subscribed to it; nextWaiter links the event's waiters.
	awaiting   *Event
	nextWaiter *Stream
}

// mark schedules the stream for a visit by the next drain.
func (st *Stream) mark() {
	if st.marked {
		return
	}
	st.marked = true
	d := st.dev
	d.marked++
	d.low = min(d.low, st.idx)
	d.sim.marked++
	d.sim.low = min(d.sim.low, d.ID)
}

func (st *Stream) push(o op) {
	if st.head == len(st.queue) && !st.running {
		st.mark()
	}
	st.queue = append(st.queue, o)
}

// pop retires the head op.
func (st *Stream) pop() {
	st.head++
	if st.head == len(st.queue) {
		st.queue, st.head = st.queue[:0], 0
	}
}

// clampKernel bounds a kernel's SM demand to [1, SMs] and its duration
// to non-negative.
func clampKernel(sms int, dur float64, devSMs int) (int, float64) {
	if sms < 1 {
		sms = 1
	}
	if sms > devSMs {
		sms = devSMs
	}
	if dur < 0 {
		dur = 0
	}
	return sms, dur
}

// Kernel enqueues a compute kernel needing sms multiprocessors for dur
// microseconds. sms is clamped to the device size; non-positive durations
// retire instantly.
func (st *Stream) Kernel(sms int, dur float64) {
	sms, dur = clampKernel(sms, dur, st.dev.SMs)
	st.push(op{kind: opKernel, sms: sms, dur: dur})
}

// Record enqueues an event-record: the event fires when all prior ops on
// this stream have completed.
func (st *Stream) Record(ev *Event) {
	st.push(op{kind: opRecord, ev: ev})
}

// Wait enqueues an event-wait: subsequent ops on this stream stall until
// the event has fired.
func (st *Stream) Wait(ev *Event) {
	st.push(op{kind: opWait, ev: ev})
}

// step tries to retire or start the head op. Returns true on progress.
func (st *Stream) step() bool {
	if st.running || st.head == len(st.queue) {
		return false
	}
	head := &st.queue[st.head]
	switch head.kind {
	case opWait:
		if !head.ev.fired {
			head.ev.subscribe(st)
			return false
		}
		st.pop()
		return true
	case opRecord:
		ev := head.ev
		st.pop()
		ev.fire()
		return true
	}
	d := st.dev
	if d.freeSMs < 1 {
		return false
	}
	sms, dur := head.sms, head.dur
	if head.kind == opTask {
		k := &head.plan.Kernels[st.pos]
		sms, dur = clampKernel(k.SMs, k.DurUS, d.SMs)
	}
	// Elastic SM grant: a kernel takes as many of its requested SMs as are
	// free and runs proportionally longer on fewer — modelling the GPU's
	// intra-kernel time-slicing. This keeps the device work-conserving: at
	// saturation, aggregate FLOP throughput equals capacity regardless of
	// how kernels pack.
	grant := sms
	if grant > d.freeSMs {
		grant = d.freeSMs
	}
	dur = dur * float64(sms) / float64(grant)
	if grant < sms {
		// Oversubscription is not free: squeezed kernels lose cache
		// locality and scheduling efficiency, so a device packed past its
		// capacity slows down slightly — the over-parallelisation regime
		// of Alg 2 line 7 / Figure 14, where adding learners reduces
		// throughput.
		dur *= 1 + ThrashPenalty*(1-float64(grant)/float64(sms))
	}
	d.freeSMs -= grant
	st.running = true
	d.sim.start(st, grant, dur)
	return true
}

// retire completes the stream's running kernel. Its SMs return to the
// device; if the device had none free, every stream starved of them may
// now start its kernel.
func (st *Stream) retire() {
	d := st.dev
	if d.freeSMs == 0 {
		for _, o := range d.streams {
			if o.running || o.head == len(o.queue) {
				continue
			}
			if k := o.queue[o.head].kind; k == opKernel || k == opTask {
				o.mark()
			}
		}
	}
	d.freeSMs += st.grant
	d.Busy += float64(st.grant) * st.dur
	st.running = false
	if head := &st.queue[st.head]; head.kind == opTask && st.pos+1 < len(head.plan.Kernels) {
		st.pos++
	} else {
		st.pos = 0
		st.pop()
	}
	st.mark()
}

// Event is a cross-stream synchronisation primitive (publish/subscribe, as
// in CUDA events): Record on one stream fires it; Wait on other streams
// blocks until fired. Events are single-shot.
type Event struct {
	fired   bool
	waiters *Stream // linked through Stream.nextWaiter
}

// subscribe registers st, whose head op waits on e, for a mark when e
// fires. A second call before e fires is a no-op: the marked drain does not
// revisit a waiting stream, but a full sweep (the tests' reference) does.
func (e *Event) subscribe(st *Stream) {
	if st.awaiting == e {
		return
	}
	st.awaiting = e
	st.nextWaiter = e.waiters
	e.waiters = st
}

func (e *Event) fire() {
	if e.fired {
		return
	}
	e.fired = true
	for w := e.waiters; w != nil; {
		next := w.nextWaiter
		w.awaiting, w.nextWaiter = nil, nil
		w.mark()
		w = next
	}
	e.waiters = nil
}
