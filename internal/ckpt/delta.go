package ckpt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Delta distribution (DESIGN.md §16): a training run that feeds a fleet of
// serving replicas should ship bytes proportional to what changed between
// snapshots, not full-tensor copies. A Delta is the difference between two
// published rounds of the same model, expressed as the set of fixed-size
// parameter chunks whose contents changed. Chunk boundaries are a pure
// function of (parameter count, ChunkElems), so publisher and replica always
// agree on them, and chunks are shipped verbatim — applying a delta is a
// plain copy into the base vector, which makes the result byte-for-byte
// identical to the full target snapshot (pinned by TestDeltaBitIdentity).
//
// Safety is CRC-anchored at both ends: BaseCRC must match the replica's
// current parameters before any chunk is written (a diverged replica rejects
// the delta instead of silently corrupting its model), and FullCRC must
// match the patched result after. A publisher whose subscriber has diverged
// — or whose history no longer holds the subscriber's round — falls back to
// a full snapshot.

// DeltaMagic identifies a serialized model delta.
const DeltaMagic = "CBOWDLTA"

// DeltaVersion is the delta format version.
const DeltaVersion = 1

// DefaultChunkElems is the default delta chunk size in float32 elements
// (16 KiB per chunk). Small enough that touching one layer of a small model
// ships a small fraction of the snapshot, large enough that the per-chunk
// index overhead stays negligible.
const DefaultChunkElems = 4096

// ErrDeltaBase is returned by Delta.Apply when the target vector does not
// match the delta's base (length or BaseCRC): the replica has diverged from
// the round the delta was computed against and needs a full resync.
var ErrDeltaBase = fmt.Errorf("ckpt: delta base mismatch (replica diverged; full resync required)")

// Delta is the difference between two published snapshots of one model.
type Delta struct {
	// Model names the architecture, like Checkpoint.Model.
	Model string
	// FromRound is the snapshot round the delta applies to; ToRound (and
	// ToIter) identify the round it produces — the versions a serving
	// replica reports before and after applying it.
	FromRound int64
	ToRound   int64
	ToIter    int64
	// NumParams is the full model vector length; a delta only applies to a
	// vector of exactly this length.
	NumParams int
	// ChunkElems is the chunk granularity the vectors were diffed at.
	ChunkElems int
	// BaseCRC / FullCRC checksum the complete base and target parameter
	// vectors (little-endian float32 bytes, the checkpoint encoding).
	BaseCRC uint32
	FullCRC uint32
	// Chunks lists the changed chunks, ascending by index. Each carries the
	// target's verbatim contents for [Index*ChunkElems, ...+len(Data)).
	Chunks []DeltaChunk
}

// DeltaChunk is one changed chunk of the model vector.
type DeltaChunk struct {
	Index int
	Data  []float32
}

// ParamsCRC returns the checksum of a parameter vector in its checkpoint
// wire encoding (little-endian float32 bytes) — the anchor Delta.Apply and
// the snapshot feed's divergence detection compare against.
func ParamsCRC(params []float32) uint32 {
	crc := crc32.NewIEEE()
	var buf [4096]byte
	i := 0
	for i < len(params) {
		n := 0
		for ; n < len(buf)/4 && i < len(params); n++ {
			binary.LittleEndian.PutUint32(buf[n*4:], floatBits(params[i]))
			i++
		}
		crc.Write(buf[:n*4])
	}
	return crc.Sum32()
}

// ComputeDelta diffs two rounds of one model at chunk granularity
// (chunkElems <= 0 selects DefaultChunkElems). base and next must be the
// same length; the returned delta carries next's contents for every chunk
// whose bytes differ. The delta references base and next only during the
// call; chunk data aliases next, so next must stay unmodified while the
// delta is in use (Write serialises it out; callers handing params to a
// publisher already give up ownership).
func ComputeDelta(model string, base, next []float32, fromRound, toRound, toIter int64, chunkElems int) (*Delta, error) {
	if len(base) != len(next) {
		return nil, fmt.Errorf("ckpt: delta between %d and %d parameters", len(base), len(next))
	}
	if chunkElems <= 0 {
		chunkElems = DefaultChunkElems
	}
	d := &Delta{
		Model:      model,
		FromRound:  fromRound,
		ToRound:    toRound,
		ToIter:     toIter,
		NumParams:  len(next),
		ChunkElems: chunkElems,
		BaseCRC:    ParamsCRC(base),
		FullCRC:    ParamsCRC(next),
	}
	for off, idx := 0, 0; off < len(next); off, idx = off+chunkElems, idx+1 {
		end := off + chunkElems
		if end > len(next) {
			end = len(next)
		}
		if !chunkEqual(base[off:end], next[off:end]) {
			d.Chunks = append(d.Chunks, DeltaChunk{Index: idx, Data: next[off:end]})
		}
	}
	return d, nil
}

// chunkEqual compares two chunks bit-wise (NaN-safe: a float compare would
// call NaN != NaN and ship unchanged chunks forever).
func chunkEqual(a, b []float32) bool {
	for i := range a {
		if floatBits(a[i]) != floatBits(b[i]) {
			return false
		}
	}
	return true
}

// Apply patches params in place, turning the FromRound vector into the
// ToRound vector. It verifies the base (length and BaseCRC) before touching
// anything — returning ErrDeltaBase on divergence — and the result against
// FullCRC after, so a successful Apply guarantees byte-identity with the
// full ToRound snapshot.
func (d *Delta) Apply(params []float32) error {
	if len(params) != d.NumParams {
		return fmt.Errorf("%w: have %d parameters, delta takes %d", ErrDeltaBase, len(params), d.NumParams)
	}
	if ParamsCRC(params) != d.BaseCRC {
		return ErrDeltaBase
	}
	for _, c := range d.Chunks {
		off := c.Index * d.ChunkElems
		if off < 0 || off+len(c.Data) > len(params) {
			return fmt.Errorf("ckpt: delta chunk %d out of range", c.Index)
		}
		copy(params[off:off+len(c.Data)], c.Data)
	}
	if ParamsCRC(params) != d.FullCRC {
		return fmt.Errorf("ckpt: delta application checksum mismatch at round %d", d.ToRound)
	}
	return nil
}

// WireSize returns the serialized size of the delta in bytes — what a
// publisher compares against the full snapshot to report savings.
func (d *Delta) WireSize() int {
	n := len(DeltaMagic) + 4 + 1 + len(d.Model) + 8*3 + 8 + 4 + 4 + 4 + 4 // header
	for _, c := range d.Chunks {
		n += 8 + 4*len(c.Data)
	}
	return n + 4 // trailing CRC
}

// WriteDelta serialises the delta to w.
func WriteDelta(w io.Writer, d *Delta) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(DeltaMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(DeltaVersion)); err != nil {
		return err
	}
	name := []byte(d.Model)
	if len(name) > 255 {
		return fmt.Errorf("ckpt: model name too long")
	}
	if err := bw.WriteByte(byte(len(name))); err != nil {
		return err
	}
	if _, err := bw.Write(name); err != nil {
		return err
	}
	for _, v := range []uint64{uint64(d.FromRound), uint64(d.ToRound), uint64(d.ToIter), uint64(d.NumParams)} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, v := range []uint32{uint32(d.ChunkElems), d.BaseCRC, d.FullCRC, uint32(len(d.Chunks))} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	crc := crc32.NewIEEE()
	buf := make([]byte, 4)
	for _, c := range d.Chunks {
		if err := binary.Write(bw, binary.LittleEndian, uint32(c.Index)); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(c.Data))); err != nil {
			return err
		}
		for _, v := range c.Data {
			binary.LittleEndian.PutUint32(buf, floatBits(v))
			if _, err := bw.Write(buf); err != nil {
				return err
			}
			crc.Write(buf)
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, crc.Sum32()); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadDelta parses a delta from r, verifying magic, version, bounds and the
// chunk-data checksum.
func ReadDelta(r io.Reader) (*Delta, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(DeltaMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("ckpt: reading delta magic: %w", err)
	}
	if string(magic) != DeltaMagic {
		return nil, fmt.Errorf("ckpt: bad delta magic %q", magic)
	}
	var version uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version < 1 || version > DeltaVersion {
		return nil, fmt.Errorf("ckpt: unsupported delta version %d", version)
	}
	nameLen, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	d := &Delta{Model: string(name)}
	var from, to, iter, n uint64
	for _, p := range []*uint64{&from, &to, &iter, &n} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, err
		}
	}
	const maxParams = 1 << 30
	if n > maxParams {
		return nil, fmt.Errorf("ckpt: implausible delta parameter count %d", n)
	}
	d.FromRound, d.ToRound, d.ToIter, d.NumParams = int64(from), int64(to), int64(iter), int(n)
	var chunkElems, nchunks uint32
	for _, p := range []*uint32{&chunkElems, &d.BaseCRC, &d.FullCRC, &nchunks} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, err
		}
	}
	if chunkElems == 0 || int(chunkElems) > maxParams {
		return nil, fmt.Errorf("ckpt: implausible delta chunk size %d", chunkElems)
	}
	d.ChunkElems = int(chunkElems)
	maxChunks := (d.NumParams + d.ChunkElems - 1) / d.ChunkElems
	if int(nchunks) > maxChunks {
		return nil, fmt.Errorf("ckpt: delta claims %d chunks, vector holds %d", nchunks, maxChunks)
	}
	// A chunk is at least its index and length; the checksum follows.
	hint, err := claim(br, r, uint64(nchunks), 8, 4)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %d delta chunks: %w", nchunks, err)
	}
	crc := crc32.NewIEEE()
	d.Chunks = make([]DeltaChunk, 0, hint)
	for i := uint32(0); i < nchunks; i++ {
		var idx, elems uint32
		if err := binary.Read(br, binary.LittleEndian, &idx); err != nil {
			return nil, fmt.Errorf("ckpt: truncated delta chunk header: %w", err)
		}
		if err := binary.Read(br, binary.LittleEndian, &elems); err != nil {
			return nil, fmt.Errorf("ckpt: truncated delta chunk header: %w", err)
		}
		if int(idx) >= maxChunks || int(elems) > d.ChunkElems {
			return nil, fmt.Errorf("ckpt: delta chunk %d/%d elements out of range", idx, elems)
		}
		hint, err := claim(br, r, uint64(elems), 4, 4)
		if err != nil {
			return nil, fmt.Errorf("ckpt: delta chunk of %d elements: %w", elems, err)
		}
		data, err := readFloats(br, uint64(elems), hint, crc)
		if err != nil {
			return nil, fmt.Errorf("ckpt: truncated delta chunk data: %w", err)
		}
		d.Chunks = append(d.Chunks, DeltaChunk{Index: int(idx), Data: data})
	}
	var sum uint32
	if err := binary.Read(br, binary.LittleEndian, &sum); err != nil {
		return nil, fmt.Errorf("ckpt: missing delta checksum: %w", err)
	}
	if sum != crc.Sum32() {
		return nil, fmt.Errorf("ckpt: delta checksum mismatch")
	}
	return d, nil
}
