package ckpt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// Magic identifies a Crossbow checkpoint file.
const Magic = "CBOWCKPT"

// Version is the format version, the only one Read accepts: a file carries
// the Meta section (the cluster plane's configuration context) and the
// snapshot section (SnapshotRound/SnapshotIter — the serving plane's model
// version, DESIGN.md §11).
const Version = 3

// Checkpoint is a model snapshot with its training context.
type Checkpoint struct {
	// Model names the architecture the parameters belong to.
	Model string
	// Epoch is the number of completed epochs.
	Epoch int
	// BestAccuracy is the best test accuracy observed so far.
	BestAccuracy float64
	// Meta carries optional training-context strings (e.g. the cluster
	// plane's server count and interconnect). Nil and empty are
	// equivalent; entries are written sorted by key, so serialisation is
	// deterministic.
	Meta map[string]string
	// SnapshotRound is the synchronisation-round version of the central
	// average model this checkpoint carries (core.Snapshot.Round), and
	// SnapshotIter the per-learner iteration count the round represents.
	// Both are zero for end-of-training checkpoints. A serving process started from a snapshot
	// checkpoint reports SnapshotRound as its model version, so a
	// prediction can always be traced to the exact published model that
	// produced it.
	SnapshotRound int64
	SnapshotIter  int64
	// Params is the flat model vector (weights, including batch-norm
	// statistics — a Crossbow model is fully described by it).
	Params []float32
}

// Write serialises the checkpoint to w.
func Write(w io.Writer, c *Checkpoint) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(Magic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(Version)); err != nil {
		return err
	}
	name := []byte(c.Model)
	if len(name) > 255 {
		return fmt.Errorf("ckpt: model name too long")
	}
	if err := bw.WriteByte(byte(len(name))); err != nil {
		return err
	}
	if _, err := bw.Write(name); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(c.Epoch)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, c.BestAccuracy); err != nil {
		return err
	}
	keys := make([]string, 0, len(c.Meta))
	for k := range c.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(keys))); err != nil {
		return err
	}
	for _, k := range keys {
		if err := writeString(bw, k); err != nil {
			return err
		}
		if err := writeString(bw, c.Meta[k]); err != nil {
			return err
		}
	}
	// Snapshot section.
	if err := binary.Write(bw, binary.LittleEndian, uint64(c.SnapshotRound)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(c.SnapshotIter)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(c.Params))); err != nil {
		return err
	}
	crc := crc32.NewIEEE()
	buf := make([]byte, 4)
	for _, v := range c.Params {
		binary.LittleEndian.PutUint32(buf, floatBits(v))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
		crc.Write(buf)
	}
	if err := binary.Write(bw, binary.LittleEndian, crc.Sum32()); err != nil {
		return err
	}
	return bw.Flush()
}

// Read parses a checkpoint from r, verifying magic, version and checksum.
func Read(r io.Reader) (*Checkpoint, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("ckpt: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("ckpt: bad magic %q", magic)
	}
	var version uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != Version {
		return nil, fmt.Errorf("ckpt: unsupported version %d", version)
	}
	nameLen, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	c := &Checkpoint{Model: string(name)}
	var epoch uint64
	if err := binary.Read(br, binary.LittleEndian, &epoch); err != nil {
		return nil, err
	}
	c.Epoch = int(epoch)
	if err := binary.Read(br, binary.LittleEndian, &c.BestAccuracy); err != nil {
		return nil, err
	}
	var metaCount uint32
	if err := binary.Read(br, binary.LittleEndian, &metaCount); err != nil {
		return nil, err
	}
	const maxMeta = 1 << 16
	if metaCount > maxMeta {
		return nil, fmt.Errorf("ckpt: implausible metadata count %d", metaCount)
	}
	if metaCount > 0 {
		// An entry is at least its two string lengths; the snapshot
		// section, the parameter count and the checksum follow.
		hint, err := claim(br, r, uint64(metaCount), 4, 28)
		if err != nil {
			return nil, fmt.Errorf("ckpt: %d metadata entries: %w", metaCount, err)
		}
		c.Meta = make(map[string]string, hint)
		for i := uint32(0); i < metaCount; i++ {
			k, err := readString(br)
			if err != nil {
				return nil, fmt.Errorf("ckpt: reading metadata: %w", err)
			}
			v, err := readString(br)
			if err != nil {
				return nil, fmt.Errorf("ckpt: reading metadata: %w", err)
			}
			c.Meta[k] = v
		}
	}
	var round, iter uint64
	if err := binary.Read(br, binary.LittleEndian, &round); err != nil {
		return nil, fmt.Errorf("ckpt: reading snapshot section: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, &iter); err != nil {
		return nil, fmt.Errorf("ckpt: reading snapshot section: %w", err)
	}
	c.SnapshotRound, c.SnapshotIter = int64(round), int64(iter)
	var n uint64
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	const maxParams = 1 << 30
	if n > maxParams {
		return nil, fmt.Errorf("ckpt: implausible parameter count %d", n)
	}
	hint, err := claim(br, r, n, 4, 4)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %d parameters: %w", n, err)
	}
	crc := crc32.NewIEEE()
	if c.Params, err = readFloats(br, n, hint, crc); err != nil {
		return nil, fmt.Errorf("ckpt: truncated parameters: %w", err)
	}
	var sum uint32
	if err := binary.Read(br, binary.LittleEndian, &sum); err != nil {
		return nil, fmt.Errorf("ckpt: missing checksum: %w", err)
	}
	if sum != crc.Sum32() {
		return nil, fmt.Errorf("ckpt: checksum mismatch")
	}
	return c, nil
}

// Save writes the checkpoint to path atomically and durably: it writes a
// temporary file in the same directory and syncs it, renames it over path,
// then syncs the directory, so a crash leaves either the old file or the
// whole new one, and a returned nil means the new one survives power loss.
func Save(path string, c *Checkpoint) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := Write(tmp, c); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if runtime.GOOS == "windows" {
		return nil // a directory handle cannot be synced there
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Load reads a checkpoint from path.
func Load(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// growStep is the most a decoder allocates ahead of the bytes for a count
// read from its input when the input's length is unknown: a header's count
// is a claim, so the slice grows past this only as the bytes arrive.
const growStep = 1 << 10

// claim checks a count n read from src (through br) against the bytes that
// can still follow: n items of at least size bytes, then tail more. It
// returns how many items to allocate up front: n when src can tell its
// length (a bytes.Reader, as every frame decoder passes) and holds them,
// else at most growStep. An input that cannot hold the claim is an error.
func claim(br *bufio.Reader, src io.Reader, n uint64, size, tail int) (int, error) {
	s, ok := src.(interface{ Len() int })
	if !ok {
		return int(min(n, growStep)), nil
	}
	if left := br.Buffered() + s.Len() - tail; left < 0 || n > uint64(left/size) {
		return 0, fmt.Errorf("more than the %d bytes that follow", br.Buffered()+s.Len())
	}
	return int(n), nil
}

// readFloats reads n little-endian float32s into a slice allocated for hint
// of them and grown by append as the bytes arrive, feeding crc.
func readFloats(br *bufio.Reader, n uint64, hint int, crc hash.Hash32) ([]float32, error) {
	out := make([]float32, 0, hint)
	buf := make([]byte, 4)
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, err
		}
		crc.Write(buf)
		out = append(out, floatFrom(binary.LittleEndian.Uint32(buf)))
	}
	return out, nil
}

func writeString(w *bufio.Writer, s string) error {
	if len(s) > 1<<16-1 {
		return fmt.Errorf("ckpt: metadata string too long (%d bytes)", len(s))
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(len(s))); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

func readString(r *bufio.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func floatBits(f float32) uint32 { return math.Float32bits(f) }

func floatFrom(u uint32) float32 { return math.Float32frombits(u) }
