package transport

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// TestFrameRoundTrip pins the wire format: header fields and tensor
// payloads survive encode/decode, and the byte layout starts with the
// magic and version.
func TestFrameRoundTrip(t *testing.T) {
	payload := []float32{1.5, -2.25, 3.125, 0, 42}
	h := header{Type: frameData, Flags: flagRestart, Sender: 3, Round: 77, Aux: dataAux(phaseAllGather, 5, 9)}
	var b bytes.Buffer
	wrote, err := writeFrame(&b, &h, f32Bytes(payload))
	if err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	if wrote != headerSize+len(payload)*4 {
		t.Fatalf("wrote %d bytes, want %d", wrote, headerSize+len(payload)*4)
	}
	raw := b.Bytes()
	if string(raw[:4]) != frameMagic || raw[4] != wireVersion {
		t.Fatalf("frame prefix = %q version %d", raw[:4], raw[4])
	}

	var pool bufPool
	got, buf, read, err := readFrame(&b, 1<<20, &pool)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if read != wrote {
		t.Fatalf("read %d bytes, wrote %d", read, wrote)
	}
	if got.Type != h.Type || got.Flags != h.Flags || got.Sender != h.Sender || got.Round != h.Round || got.Aux != h.Aux {
		t.Fatalf("header mismatch: got %+v want %+v", got, h)
	}
	if dataPhase(got.Aux) != phaseAllGather || dataSeg(got.Aux) != 5 || dataStep(got.Aux) != 9 {
		t.Fatalf("aux decode: phase %d seg %d step %d", dataPhase(got.Aux), dataSeg(got.Aux), dataStep(got.Aux))
	}
	f32, err := payloadF32(buf, &got)
	if err != nil {
		t.Fatalf("payloadF32: %v", err)
	}
	for i, v := range payload {
		if f32[i] != v {
			t.Fatalf("payload[%d] = %v, want %v", i, f32[i], v)
		}
	}
	pool.Put(buf)
}

// TestFrameEmpty round-trips a control frame with no payload.
func TestFrameEmpty(t *testing.T) {
	var b bytes.Buffer
	h := header{Type: frameHeartbeat, Sender: 1}
	if _, err := writeFrame(&b, &h, nil); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	var pool bufPool
	got, buf, _, err := readFrame(&b, 0, &pool)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if buf != nil || got.Length != 0 || got.Type != frameHeartbeat {
		t.Fatalf("empty frame decoded as %+v payload %v", got, buf)
	}
}

// TestFrameCorruption verifies the integrity checks: flipped payload bits
// fail the CRC, a bad magic and a future version are rejected, and an
// oversized frame is refused before any payload allocation.
func TestFrameCorruption(t *testing.T) {
	var pool bufPool
	mk := func() []byte {
		var b bytes.Buffer
		h := header{Type: frameData, Sender: 2, Round: 5}
		writeFrame(&b, &h, f32Bytes([]float32{1, 2, 3}))
		return b.Bytes()
	}

	raw := mk()
	raw[headerSize+1] ^= 0x40 // corrupt payload
	if _, _, _, err := readFrame(bytes.NewReader(raw), 1<<20, &pool); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt payload: err = %v, want checksum mismatch", err)
	}

	raw = mk()
	raw[0] = 'X'
	if _, _, _, err := readFrame(bytes.NewReader(raw), 1<<20, &pool); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: err = %v", err)
	}

	raw = mk()
	raw[4] = wireVersion + 1
	if _, _, _, err := readFrame(bytes.NewReader(raw), 1<<20, &pool); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version: err = %v", err)
	}

	raw = mk()
	if _, _, _, err := readFrame(bytes.NewReader(raw), 4, &pool); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("oversized: err = %v", err)
	}

	raw = mk()
	if _, _, _, err := readFrame(bytes.NewReader(raw[:headerSize+5]), 1<<20, &pool); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated: err = %v", err)
	}
}

// TestFrameErrWireClassification pins the corruption taxonomy the read
// loop's quarantine decision rests on: every decode failure that can only
// come from a damaged or misbehaving sender wraps errWire, while
// truncation (indistinguishable from a peer dying mid-write) and EOF do
// not — those must stay plain reconnectable connection deaths.
func TestFrameErrWireClassification(t *testing.T) {
	var pool bufPool
	mk := func() []byte {
		var b bytes.Buffer
		h := header{Type: frameData, Sender: 2, Round: 5}
		writeFrame(&b, &h, f32Bytes([]float32{1, 2, 3}))
		return b.Bytes()
	}

	wire := map[string]func() []byte{
		"checksum": func() []byte { r := mk(); r[headerSize] ^= 1; return r },
		"magic":    func() []byte { r := mk(); r[0] = 'X'; return r },
		"version":  func() []byte { r := mk(); r[4] = wireVersion + 1; return r },
		"empty frame with non-zero checksum": func() []byte {
			var b bytes.Buffer
			writeFrame(&b, &header{Type: frameHeartbeat}, nil)
			r := b.Bytes()
			r[32] = 0xFF // forge a checksum onto a zero-length frame
			return r
		},
	}
	for name, build := range wire {
		_, _, _, err := readFrame(bytes.NewReader(build()), 1<<20, &pool)
		if err == nil || !errors.Is(err, errWire) {
			t.Fatalf("%s: err = %v, want errWire", name, err)
		}
	}
	// Oversize is errWire too, but checked against the configured limit.
	if _, _, _, err := readFrame(bytes.NewReader(mk()), 4, &pool); !errors.Is(err, errWire) {
		t.Fatalf("oversized: err = %v, want errWire", err)
	}

	// The two clean-death shapes must NOT be errWire.
	raw := mk()
	if _, _, _, err := readFrame(bytes.NewReader(raw[:headerSize+5]), 1<<20, &pool); err == nil || errors.Is(err, errWire) {
		t.Fatalf("truncated payload: err = %v, want non-errWire failure", err)
	}
	if _, _, _, err := readFrame(bytes.NewReader(raw[:10]), 1<<20, &pool); err == nil || errors.Is(err, errWire) {
		t.Fatalf("truncated header: err = %v, want non-errWire failure", err)
	}
}

// TestFramePoolRestitution verifies the decode error paths return their
// pooled payload buffer: after a checksum failure and a truncated payload
// the pool must hold the buffer again, or a fault storm would leak one
// buffer per bad frame.
func TestFramePoolRestitution(t *testing.T) {
	var pool bufPool
	for _, breakFrame := range []func([]byte) []byte{
		func(r []byte) []byte { r[headerSize] ^= 1; return r }, // checksum failure
		func(r []byte) []byte { return r[:len(r)-8] },          // truncated payload
	} {
		var b bytes.Buffer
		h := header{Type: frameData, Sender: 1}
		writeFrame(&b, &h, f32Bytes(make([]float32, 64)))
		readFrame(bytes.NewReader(breakFrame(b.Bytes())), 1<<20, &pool)

		pool.mu.Lock()
		n := len(pool.free)
		pool.mu.Unlock()
		if n != 1 {
			t.Fatalf("pool holds %d buffers after failed decode, want 1", n)
		}
		pool.Get(64) // drain for the next iteration
	}
}

// TestWriteFrameCorrupt pins the injector's bit-flip writer: the wire
// carries the clean payload's checksum over a payload with exactly one
// inverted bit, the receiver's CRC rejects it as errWire, and the caller's
// buffer is never mutated.
func TestWriteFrameCorrupt(t *testing.T) {
	payload := []float32{1, 2, 3, 4}
	clean := f32Bytes(payload)
	for _, bit := range []int{0, 7, 8, 63, len(clean)*8 - 1} {
		var b bytes.Buffer
		h := header{Type: frameData, Sender: 1, Round: 3}
		wrote, err := writeFrameCorrupt(&b, &h, clean, bit)
		if err != nil || wrote != headerSize+len(clean) {
			t.Fatalf("bit %d: wrote %d, err %v", bit, wrote, err)
		}
		raw := b.Bytes()
		if got := raw[headerSize+bit/8] ^ clean[bit/8]; got != 1<<uint(bit%8) {
			t.Fatalf("bit %d: wire byte differs by %#x, want single flipped bit", bit, got)
		}
		if payload[0] != 1 || payload[3] != 4 {
			t.Fatalf("bit %d: caller's payload mutated: %v", bit, payload)
		}
		var pool bufPool
		if _, _, _, err := readFrame(&b, 1<<20, &pool); !errors.Is(err, errWire) {
			t.Fatalf("bit %d: readFrame err = %v, want errWire", bit, err)
		}
	}
}

// TestWriteFrameTruncated pins the injector's mid-write death: a header
// promising the full payload followed by a prefix of it. The receiver
// must report a plain truncation (reconnect), not errWire (quarantine).
func TestWriteFrameTruncated(t *testing.T) {
	payload := f32Bytes([]float32{1, 2, 3, 4})
	var b bytes.Buffer
	h := header{Type: frameData, Sender: 1}
	wrote, err := writeFrameTruncated(&b, &h, payload, 5)
	if err != nil || wrote != headerSize+5 {
		t.Fatalf("wrote %d, err %v", wrote, err)
	}
	var pool bufPool
	_, _, _, rerr := readFrame(&b, 1<<20, &pool)
	if rerr == nil || errors.Is(rerr, errWire) || !strings.Contains(rerr.Error(), "truncated") {
		t.Fatalf("readFrame err = %v, want plain truncation", rerr)
	}
}

// TestFrameReaderStops ensures a clean EOF mid-header surfaces as an error
// rather than a phantom frame.
func TestFrameReaderStops(t *testing.T) {
	var pool bufPool
	if _, _, _, err := readFrame(bytes.NewReader(nil), 0, &pool); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
}

// TestBufPool pins the free-list contract: a recycled buffer is reused
// when large enough, and Get always returns the exact requested length.
func TestBufPool(t *testing.T) {
	var pool bufPool
	a := pool.Get(100)
	if len(a) != 100 {
		t.Fatalf("Get(100) returned len %d", len(a))
	}
	pool.Put(a)
	b := pool.Get(50)
	if len(b) != 50 || cap(b) < 100 {
		t.Fatalf("Get(50) after Put(cap 100): len %d cap %d, want recycled buffer", len(b), cap(b))
	}
	c := pool.Get(200)
	if len(c) != 200 {
		t.Fatalf("Get(200) returned len %d", len(c))
	}
}

// FuzzReadFrame: whatever readFrameInto accepts from a byte stream,
// writeFrame encodes back to the same header and payload bytes. The seeds
// (testdata/fuzz/FuzzReadFrame) are writeFrame encodings of each frame
// type; the payload limit is small, so a header claiming more is refused
// before anything is allocated for it.
func FuzzReadFrame(f *testing.F) {
	const maxPayload = 256
	f.Fuzz(func(t *testing.T, raw []byte) {
		var hdr [headerSize]byte
		var pool bufPool
		h, buf, n, err := readFrameInto(bytes.NewReader(raw), &hdr, maxPayload, &pool)
		if err != nil {
			return
		}
		payload := f32Bytes(buf)[:h.Length]
		if n != headerSize+len(payload) {
			t.Fatalf("read %d bytes for a %d-byte payload", n, len(payload))
		}
		var out bytes.Buffer
		if _, err := writeFrame(&out, &h, payload); err != nil {
			t.Fatalf("writeFrame of an accepted frame: %v", err)
		}
		if !bytes.Equal(out.Bytes(), raw[:n]) {
			t.Fatalf("re-encoding changed the frame:\n% x\n% x", raw[:n], out.Bytes())
		}
	})
}
