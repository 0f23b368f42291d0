package ckpt

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"crossbow/internal/tensor"
)

func sample() *Checkpoint {
	return &Checkpoint{
		Model:        "resnet32",
		Epoch:        42,
		BestAccuracy: 0.883,
		Params:       []float32{1.5, -2.25, 0, 3.14159, -0.0001},
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sample()
	if got.Model != want.Model || got.Epoch != want.Epoch || got.BestAccuracy != want.BestAccuracy {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	if tensor.MaxAbsDiff(got.Params, want.Params) != 0 {
		t.Fatalf("params mismatch: %v", got.Params)
	}
}

func TestRoundTripEmptyParams(t *testing.T) {
	var buf bytes.Buffer
	c := &Checkpoint{Model: "m"}
	if err := Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Params) != 0 {
		t.Fatalf("params = %v", got.Params)
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := Read(bytes.NewBufferString("NOTACKPTxxxxxxxxxxxx")); err == nil {
		t.Fatal("expected error")
	}
}

func TestTruncationRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{len(Magic) - 1, len(Magic) + 2, len(data) / 2, len(data) - 2} {
		if _, err := Read(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestCorruptionDetectedByChecksum(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip one bit inside the parameter payload.
	data[len(data)-10] ^= 0x40
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("corruption went undetected")
	}
}

func TestSaveLoadAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	if err := Save(path, sample()); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 42 {
		t.Fatalf("epoch = %d", got.Epoch)
	}
	// No temp files left behind.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries", len(entries))
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.ckpt")); err == nil {
		t.Fatal("expected error")
	}
}

// Property: any parameter vector round-trips bit-exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16, epoch uint16) bool {
		r := tensor.NewRNG(seed)
		n := int(nRaw % 2000)
		c := &Checkpoint{Model: "m", Epoch: int(epoch), Params: make([]float32, n)}
		for i := range c.Params {
			c.Params[i] = float32(r.NormFloat64())
		}
		var buf bytes.Buffer
		if Write(&buf, c) != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if got.Epoch != c.Epoch || len(got.Params) != n {
			return false
		}
		for i := range c.Params {
			if got.Params[i] != c.Params[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripMeta(t *testing.T) {
	c := sample()
	c.Meta = map[string]string{"servers": "8", "interconnect": "10GbE"}
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Meta) != 2 || got.Meta["servers"] != "8" || got.Meta["interconnect"] != "10GbE" {
		t.Fatalf("meta mismatch: %v", got.Meta)
	}
}

func TestMetaWriteDeterministic(t *testing.T) {
	c := sample()
	c.Meta = map[string]string{"b": "2", "a": "1", "c": "3"}
	var one, two bytes.Buffer
	if err := Write(&one, c); err != nil {
		t.Fatal(err)
	}
	if err := Write(&two, c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), two.Bytes()) {
		t.Fatal("meta serialisation not deterministic")
	}
}

// TestRoundTripSnapshotVersion pins the v3 snapshot section.
func TestRoundTripSnapshotVersion(t *testing.T) {
	c := sample()
	c.SnapshotRound, c.SnapshotIter = 1234, 2468
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.SnapshotRound != 1234 || got.SnapshotIter != 2468 {
		t.Fatalf("snapshot version %d/%d, want 1234/2468", got.SnapshotRound, got.SnapshotIter)
	}
}

// TestFutureVersionRejected: Read takes exactly format v3. The files of the
// older layouts (v1 without the metadata section, v2 without the snapshot
// section) and any later version are refused on the version field alone.
func TestFutureVersionRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint32{1, 2, Version + 1} {
		data := append([]byte(nil), buf.Bytes()...)
		// Patch the version field, right after the magic.
		binary.LittleEndian.PutUint32(data[len(Magic):], v)
		if _, err := Read(bytes.NewReader(data)); err == nil {
			t.Errorf("version %d accepted", v)
		}
	}
}
