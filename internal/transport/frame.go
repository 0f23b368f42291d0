package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"unsafe"
)

// errWire marks definitive wire corruption — a decoded frame that can only
// come from a misbehaving or damaged sender (bad magic/version, impossible
// length, checksum mismatch), as opposed to a cleanly dying connection
// (EOF, truncation mid-frame). The read loop quarantines the peer on
// errWire; plain connection death just reconnects.
var errWire = errors.New("transport: wire corruption")

// Wire format: every message is one length-prefixed frame with a fixed
// 36-byte header followed by the payload. Integers are little-endian.
//
//	offset size field
//	0      4    magic "CBTF"
//	4      1    wire version
//	5      1    frame type
//	6      2    flags
//	8      4    sender rank
//	12     8    round (collective frames) / 0
//	20     8    aux (Begin: participant view bitmap; Data: phase|seg|step)
//	28     4    payload length in bytes
//	32     4    CRC-32 (IEEE) of the payload
//
// Tensor payloads are the raw native-endian float32 bytes of the model
// vector chunk — encoded and decoded through an unsafe slice view, so a
// send costs no copy and a receive lands directly in a pooled buffer.
//
// Version 2 repacked the Data aux field to address pipeline segments
// (collectives ship each transfer as several fixed-boundary segments so
// sends overlap receive+sum). Version 3 derives a transfer's segment count
// from its length (segCount), which changes the Data frames a v2 node
// expects. Version 4 replaces the ring with the owner collective: a Data
// frame's step names the chunk it carries, and a rank sends each chunk to
// its owner, so a v3 node would read v4 frames as different chunks. Nodes
// of different versions must not mix: the version check rejects the
// handshake.
const (
	frameMagic  = "CBTF"
	wireVersion = 4
	headerSize  = 36
)

// Frame types.
const (
	frameHello     = byte(1)  // dialer's rank announcement
	frameHelloAck  = byte(2)  // acceptor's confirmation
	frameHeartbeat = byte(3)  // liveness beacon
	frameReady     = byte(4)  // member is at the round barrier (Round: its last round)
	frameBegin     = byte(5)  // coordinator opens a round (view in aux)
	frameData      = byte(6)  // tensor chunk of a collective step
	frameSnapReq   = byte(7)  // pull a model snapshot
	frameSnapResp  = byte(8)  // checkpoint-v3 payload (empty: none held)
	frameLeave     = byte(9)  // graceful departure
	frameAbort     = byte(10) // a participant aborted the round in `round`

	// Snapshot feed frames (publisher ↔ follower, DESIGN.md §16). These
	// reuse the CBTF framing on a dedicated connection — a follower is not
	// a rank of the collective mesh, so Sender carries the publisher-
	// assigned subscriber id instead of a rank.
	frameSubHello  = byte(11) // follower's base announcement (Round, Aux=params CRC)
	frameSnapFull  = byte(12) // full checkpoint-v3 snapshot payload
	frameSnapDelta = byte(13) // ckpt delta payload (CBOWDLTA)
	frameSubAck    = byte(14) // follower's applied state (Round, Aux=params CRC)
)

// Frame flags.
const (
	flagRestart = uint16(1) // Begin: view changed, re-derive z from consensus
	flagDirty   = uint16(2) // Ready: sender's last round aborted, force Restart
)

// header is the decoded fixed part of a frame.
type header struct {
	Type   byte
	Flags  uint16
	Sender uint32
	Round  uint64
	Aux    uint64
	Length uint32
}

// dataAux packs a collective Data frame's addressing into the aux field:
// the phase (reduce-scatter or all-gather), the pipeline segment within the
// transfer, and the step — the view index of the chunk the frame carries.
func dataAux(phase byte, seg, step int) uint64 {
	return uint64(phase)<<56 | uint64(uint16(seg))<<40 | uint64(uint32(step))
}

func dataPhase(aux uint64) byte { return byte(aux >> 56) }
func dataSeg(aux uint64) int    { return int(uint16(aux >> 40)) }
func dataStep(aux uint64) int   { return int(uint32(aux)) }

// Collective phases.
const (
	phaseReduceScatter = byte(1)
	phaseAllGather     = byte(2)
)

// putHeader serialises h (with the payload's length and CRC already set by
// the caller) into buf.
func putHeader(buf *[headerSize]byte, h *header, crc uint32) {
	copy(buf[0:4], frameMagic)
	buf[4] = wireVersion
	buf[5] = h.Type
	binary.LittleEndian.PutUint16(buf[6:8], h.Flags)
	binary.LittleEndian.PutUint32(buf[8:12], h.Sender)
	binary.LittleEndian.PutUint64(buf[12:20], h.Round)
	binary.LittleEndian.PutUint64(buf[20:28], h.Aux)
	binary.LittleEndian.PutUint32(buf[28:32], h.Length)
	binary.LittleEndian.PutUint32(buf[32:36], crc)
}

// parseHeader validates magic and version and decodes the fixed fields,
// returning the payload CRC for the caller to verify.
func parseHeader(buf *[headerSize]byte) (header, uint32, error) {
	if string(buf[0:4]) != frameMagic {
		return header{}, 0, fmt.Errorf("%w: bad frame magic %q", errWire, buf[0:4])
	}
	if buf[4] != wireVersion {
		return header{}, 0, fmt.Errorf("%w: unsupported wire version %d", errWire, buf[4])
	}
	h := header{
		Type:   buf[5],
		Flags:  binary.LittleEndian.Uint16(buf[6:8]),
		Sender: binary.LittleEndian.Uint32(buf[8:12]),
		Round:  binary.LittleEndian.Uint64(buf[12:20]),
		Aux:    binary.LittleEndian.Uint64(buf[20:28]),
		Length: binary.LittleEndian.Uint32(buf[28:32]),
	}
	return h, binary.LittleEndian.Uint32(buf[32:36]), nil
}

// writeFrame serialises one frame. The caller holds the connection's write
// lock; payload may be nil for control frames. Returns the total bytes
// written.
func writeFrame(w io.Writer, h *header, payload []byte) (int, error) {
	var fw frameWriter
	return fw.write(w, h, payload)
}

// frameWriter is a connection's reusable encode state: the header bytes and
// the vector that hands header and payload to the kernel in one writev
// (net.Buffers falls back to one Write per part on other writers). A peer
// keeps one under its write lock, so a frame costs one syscall and no
// allocation.
type frameWriter struct {
	hdr   [headerSize]byte
	parts [2][]byte
	vec   net.Buffers
}

func (fw *frameWriter) write(w io.Writer, h *header, payload []byte) (int, error) {
	h.Length = uint32(len(payload))
	putHeader(&fw.hdr, h, crc32.ChecksumIEEE(payload))
	fw.parts = [2][]byte{fw.hdr[:], payload}
	fw.vec = fw.parts[:1]
	if len(payload) > 0 {
		fw.vec = fw.parts[:]
	}
	n, err := fw.vec.WriteTo(w)
	fw.parts[1] = nil // do not pin the caller's buffer
	return int(n), err
}

// writeFrameCorrupt is the fault injector's bit-flip: the header carries
// the CRC of the CLEAN payload, but bit `bit` of the payload goes out
// inverted — exactly what a damaged NIC or buggy peer produces, and what
// the receiver's checksum must reject. The caller's payload is not
// mutated.
func writeFrameCorrupt(w io.Writer, h *header, payload []byte, bit int) (int, error) {
	h.Length = uint32(len(payload))
	var hdr [headerSize]byte
	putHeader(&hdr, h, crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	i := bit / 8
	if _, err := w.Write(payload[:i]); err != nil {
		return headerSize, err
	}
	flipped := [1]byte{payload[i] ^ 1<<uint(bit%8)}
	if _, err := w.Write(flipped[:]); err != nil {
		return headerSize + i, err
	}
	if _, err := w.Write(payload[i+1:]); err != nil {
		return headerSize + i + 1, err
	}
	return headerSize + len(payload), nil
}

// writeFrameTruncated is the fault injector's mid-write death: a header
// promising the full payload followed by only `keep` bytes of it, after
// which the caller resets the connection. The receiver's ReadFull blocks
// until the reset and reports a truncated frame.
func writeFrameTruncated(w io.Writer, h *header, payload []byte, keep int) (int, error) {
	h.Length = uint32(len(payload))
	var hdr [headerSize]byte
	putHeader(&hdr, h, crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload[:keep]); err != nil {
		return headerSize, err
	}
	return headerSize + keep, nil
}

// readFrame reads one frame from r, verifying the checksum. Payloads land
// in a buffer from pool (sized in float32 elements, so tensor payloads are
// aligned for the zero-copy float view); the caller must Put it back. The
// payload slice is nil for empty frames. Returns the total bytes read.
func readFrame(r io.Reader, maxPayload int, pool *bufPool) (header, []float32, int, error) {
	var hdr [headerSize]byte
	return readFrameInto(r, &hdr, maxPayload, pool)
}

// readFrameInto is readFrame with the caller's header buffer: a read loop
// passes its own, so a frame costs no allocation.
func readFrameInto(r io.Reader, hdr *[headerSize]byte, maxPayload int, pool *bufPool) (header, []float32, int, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return header{}, nil, 0, err
	}
	h, wantCRC, err := parseHeader(hdr)
	if err != nil {
		return header{}, nil, 0, err
	}
	if int(h.Length) > maxPayload {
		return header{}, nil, 0, fmt.Errorf("%w: frame payload %d exceeds limit %d", errWire, h.Length, maxPayload)
	}
	if h.Length == 0 {
		if wantCRC != 0 {
			return header{}, nil, 0, fmt.Errorf("%w: empty frame with non-zero checksum", errWire)
		}
		return h, nil, headerSize, nil
	}
	elems := (int(h.Length) + 3) / 4
	buf := pool.Get(elems)
	b := f32Bytes(buf)[:h.Length]
	if _, err := io.ReadFull(r, b); err != nil {
		pool.Put(buf)
		return header{}, nil, 0, fmt.Errorf("transport: truncated frame payload: %w", err)
	}
	if crc32.ChecksumIEEE(b) != wantCRC {
		pool.Put(buf)
		return header{}, nil, 0, fmt.Errorf("%w: frame checksum mismatch (type %d from rank %d)", errWire, h.Type, h.Sender)
	}
	return h, buf, headerSize + int(h.Length), nil
}

// f32Bytes views a float32 slice as its raw bytes without copying (the
// same reinterpret idiom as tensor.AsInt32: identical size and alignment,
// aliased storage). Encoding is native-endian; every rank of a cluster
// runs the same binary on the same architecture, and the checksum rejects
// accidental cross-endian mixes.
func f32Bytes(s []float32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
}

// payloadF32 clips a pooled payload buffer to the tensor element count of
// a Data frame.
func payloadF32(buf []float32, h *header) ([]float32, error) {
	if h.Length%4 != 0 {
		return nil, fmt.Errorf("transport: tensor payload of %d bytes is not float32-aligned", h.Length)
	}
	return buf[:h.Length/4], nil
}

// bufPool is a free-list of float32 buffers for frame payloads — the
// internal/serve free-list idiom with a size threshold: Get returns a
// buffer with capacity at least elems, Put recycles it. Round after round
// the collective cycles through the same few chunk sizes, so the pool
// reaches steady state after the first round and the receive path stops
// allocating.
type bufPool struct {
	mu   sync.Mutex
	free [][]float32
}

// Get returns a buffer of the given element length.
func (p *bufPool) Get(elems int) []float32 {
	p.mu.Lock()
	for i := len(p.free) - 1; i >= 0; i-- {
		if cap(p.free[i]) >= elems {
			b := p.free[i]
			p.free = append(p.free[:i], p.free[i+1:]...)
			p.mu.Unlock()
			return b[:elems]
		}
	}
	p.mu.Unlock()
	return make([]float32, elems)
}

// Put recycles a buffer obtained from Get. The free list is bounded so a
// burst of odd-sized frames cannot pin memory forever.
func (p *bufPool) Put(b []float32) {
	if cap(b) == 0 {
		return
	}
	p.mu.Lock()
	if len(p.free) < 32 {
		p.free = append(p.free, b[:0])
	}
	p.mu.Unlock()
}
