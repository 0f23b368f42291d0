package ckpt

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"testing"
)

// opaque hides a reader's length, so a decoder cannot check a claimed count
// against it and must grow its slices as the bytes arrive.
type opaque struct{ io.Reader }

// le appends fixed-size fields to b in little-endian order.
func le(b []byte, fields ...any) []byte {
	buf := bytes.NewBuffer(b)
	for _, f := range fields {
		binary.Write(buf, binary.LittleEndian, f)
	}
	return buf.Bytes()
}

// TestDecodersBoundClaimedCounts feeds each decoder a short input whose
// header claims up to 2^30 elements: it must fail on the missing bytes
// without allocating for the claim, whether the reader can tell its length
// or not.
func TestDecodersBoundClaimedCounts(t *testing.T) {
	ckptHead := le([]byte(Magic), uint32(Version), uint8(0), uint64(0), float64(0))
	deltaHead := func(numParams uint64, chunkElems, nchunks uint32) []byte {
		return le([]byte(DeltaMagic), uint32(DeltaVersion), uint8(0),
			uint64(0), uint64(1), uint64(0), numParams,
			chunkElems, uint32(0), uint32(0), nchunks)
	}
	cases := []struct {
		name   string
		raw    []byte
		decode func(io.Reader) error
	}{
		{"checkpoint claiming 2^30 parameters",
			le(ckptHead, uint32(0), uint64(0), uint64(0), uint64(1<<30), float32(1)),
			func(r io.Reader) error { _, err := Read(r); return err }},
		{"checkpoint claiming 2^16 metadata entries",
			le(ckptHead, uint32(1<<16), uint16(1), uint8('k'), uint16(0)),
			func(r io.Reader) error { _, err := Read(r); return err }},
		{"delta claiming 2^30 chunks",
			le(deltaHead(1<<30, 1, 1<<30), uint32(0), uint32(1), float32(1)),
			func(r io.Reader) error { _, err := ReadDelta(r); return err }},
		{"delta chunk claiming 2^30 elements",
			le(deltaHead(1<<30, 1<<30, 1), uint32(0), uint32(1<<30), float32(1)),
			func(r io.Reader) error { _, err := ReadDelta(r); return err }},
	}
	for _, c := range cases {
		for _, known := range []bool{true, false} {
			var r io.Reader = bytes.NewReader(c.raw)
			if !known {
				r = opaque{r}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := c.decode(r)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s (%d bytes, length known %v): accepted", c.name, len(c.raw), known)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Errorf("%s (%d bytes, length known %v): allocated %d bytes", c.name, len(c.raw), known, got)
			}
		}
	}
}

// FuzzRead: whatever Read accepts, writing it and reading it back gives the
// same checkpoint. (The bytes need not match: Read accepts unsorted
// metadata and trailing bytes, which Write never emits.)
func FuzzRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		c, err := Read(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, c); err != nil {
			t.Fatalf("Write of an accepted checkpoint: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read of a written checkpoint: %v", err)
		}
		if !sameCheckpoint(c, back) {
			t.Fatalf("round trip changed the checkpoint:\n%+v\n%+v", c, back)
		}
	})
}

// FuzzReadDelta: whatever ReadDelta accepts, writing it and reading it back
// gives the same delta.
func FuzzReadDelta(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		d, err := ReadDelta(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteDelta(&buf, d); err != nil {
			t.Fatalf("WriteDelta of an accepted delta: %v", err)
		}
		if buf.Len() != d.WireSize() {
			t.Fatalf("WireSize %d, wrote %d bytes", d.WireSize(), buf.Len())
		}
		back, err := ReadDelta(&buf)
		if err != nil {
			t.Fatalf("ReadDelta of a written delta: %v", err)
		}
		if !sameDelta(d, back) {
			t.Fatalf("round trip changed the delta:\n%+v\n%+v", d, back)
		}
	})
}

// sameFloats compares bit patterns, so a NaN equals itself.
func sameFloats(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func sameCheckpoint(a, b *Checkpoint) bool {
	if a.Model != b.Model || a.Epoch != b.Epoch ||
		math.Float64bits(a.BestAccuracy) != math.Float64bits(b.BestAccuracy) ||
		a.SnapshotRound != b.SnapshotRound || a.SnapshotIter != b.SnapshotIter ||
		len(a.Meta) != len(b.Meta) || !sameFloats(a.Params, b.Params) {
		return false
	}
	for k, v := range a.Meta {
		if w, ok := b.Meta[k]; !ok || w != v {
			return false
		}
	}
	return true
}

func sameDelta(a, b *Delta) bool {
	if a.Model != b.Model || a.FromRound != b.FromRound || a.ToRound != b.ToRound ||
		a.ToIter != b.ToIter || a.NumParams != b.NumParams || a.ChunkElems != b.ChunkElems ||
		a.BaseCRC != b.BaseCRC || a.FullCRC != b.FullCRC || len(a.Chunks) != len(b.Chunks) {
		return false
	}
	for i, c := range a.Chunks {
		if c.Index != b.Chunks[i].Index || !sameFloats(c.Data, b.Chunks[i].Data) {
			return false
		}
	}
	return true
}
