//go:build unix

package transport

import (
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"syscall"
)

// spinReadProbes is how many times a read loop re-reads an empty socket,
// yielding the processor between probes, before it parks on the netpoller —
// and it only probes while its node is inside a round. A probe (a read that
// returns EAGAIN, then runtime.Gosched) costs 0.6–0.8 µs on the reference
// box, so the budget covers about 0.7 ms: longer than the gaps inside a
// round (a peer's summation of one segment, its answer to Ready), shorter
// than three b = 4 ResNet-32 tasks.
//
// Why spin at all: a read loop that parks is woken by the netpoller, and
// with a round in flight on two busy cores that wake-up waits for a thread
// that went to sleep. The two ranks then took turns instead of computing at
// the same time; the rank that finished its collective last started its
// next task that much later, and the other waited for it at the next
// barrier.
//
// Measured on the 2-vCPU reference box: cluster-tcp-resnet32 images/s (seed
// 1, benchmark/run.sh defaults), six rounds with every budget once a round
// in rotating order, median ratio to the 0-probe build of the same round
// (range; rounds won):
//
//	    0 probes (park at once)  1.00× (median 12 350 images/s)
//	  256 probes                 1.33× (1.29–1.50; 6 of 6)
//	 1024 probes                 1.35× (1.22–1.57; 6 of 6)
//	 4096 probes                 1.28× (1.22–1.57; 6 of 6)
//	16384 probes                 1.35× (1.29–1.51; 6 of 6)
//
// Every budget from 256 up wins every round, and the differences among them
// are inside the box's noise; the committed budget sits low in the flat
// part, so a waiter behind a descheduled peer gives its core up after well
// under a millisecond.
const spinReadProbes = 1024

// spinReader is a read loop's view of its connection. A Read that finds the
// socket empty while the node is inside a round (Node.inRound > 0) probes
// it again, runtime.Gosched between probes, for up to spinReadProbes probes,
// and then parks on the netpoller exactly as conn.Read does; outside rounds
// it parks at once. Only the read loop spins: a spinner on the data mailbox
// would sit in the global run queue and keep the scheduler from polling the
// network at all.
//
// The same is true of the read loops themselves once they outnumber the
// processors: every processor then always has a spinner to run, none goes
// idle to poll the network, and a read loop that did park (a connection
// with nothing due this round, or a node whose round began while its loop
// was parked) waits for its wake-up until the spinners' budgets run out.
// Three in-process ranks on two cores took 3–5× as long per round that way
// (BenchmarkAllReduce, 176 KiB); with at most GOMAXPROCS read loops of the
// process spinning at once (spinSlots, the rest park as before) they take
// 1.25× the 0-probe build's time, and two ranks the same time as it. The
// cap is process-wide because processors are: a per-node count would not
// bound ranks that share a process.
//
// The RawConn callback is a method value bound once per connection, and its
// operands and results live here, so a Read allocates nothing. Close and a
// read deadline still work: RawConn.Read returns when the descriptor closes,
// at the latest one spin budget after the close.
type spinReader struct {
	n    *Node
	rc   syscall.RawConn
	read func(fd uintptr) bool // r.readFD

	p   []byte
	got int
	err error
}

// spinSlots counts the read loops of this process that are spinning.
var spinSlots atomic.Int32

// claimSpinSlot takes one of the GOMAXPROCS spinning slots, if one is free.
func claimSpinSlot() bool {
	if spinSlots.Add(1) <= int32(runtime.GOMAXPROCS(0)) {
		return true
	}
	spinSlots.Add(-1)
	return false
}

// connReader returns what the read loop reads conn through: a spinReader
// where the connection exposes its descriptor, the connection otherwise.
func (n *Node) connReader(conn net.Conn) io.Reader {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return conn
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return conn
	}
	r := &spinReader{n: n, rc: rc}
	r.read = r.readFD
	return r
}

func (r *spinReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	r.p = p
	err := r.rc.Read(r.read)
	r.p = nil
	if err == nil {
		err = r.err
	}
	if err != nil {
		return 0, err
	}
	if r.got == 0 {
		return 0, io.EOF
	}
	return r.got, nil
}

// readFD is the RawConn callback: true when the read finished (data, EOF or
// an error), false to park until the descriptor is readable.
func (r *spinReader) readFD(fd uintptr) bool {
	spinning := false
	for probes := 0; ; {
		got, err := syscall.Read(int(fd), r.p)
		if err == syscall.EINTR {
			continue
		}
		if err == syscall.EAGAIN && probes < spinReadProbes && r.n.inRound.Load() > 0 && (spinning || claimSpinSlot()) {
			spinning = true
			probes++
			r.n.stats.spinProbes.Add(1)
			runtime.Gosched()
			continue
		}
		if spinning {
			spinSlots.Add(-1)
		}
		if err == syscall.EAGAIN {
			return false
		}
		r.got, r.err = max(got, 0), err
		return true
	}
}
