package data

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"crossbow/internal/nn"
)

// datasetCRCs returns the CRC-32 of a dataset's samples (the Float32bits of
// X) and of its labels (each as a little-endian uint32).
func datasetCRCs(d *Dataset) (x, y uint32) {
	b := make([]byte, 4*max(len(d.X), len(d.Y)))
	for i, v := range d.X {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	x = crc32.ChecksumIEEE(b[:4*len(d.X)])
	for i, v := range d.Y {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
	return x, crc32.ChecksumIEEE(b[:4*len(d.Y)])
}

// TestGoldenDatasets pins every model's synthetic train and test sets bit for
// bit, at the default sizes for seeds 1 and 7 and at the size a LeNet set-up
// call trains on (Train 8). ResNet-50's stand-in shares ResNet-32's shape,
// classes and scale, hence its sets. A changed constant is a changed draw or
// rounding in the synthesis, never noise.
func TestGoldenDatasets(t *testing.T) {
	cases := []struct {
		model nn.ModelID
		seed  uint64
		train int       // 0 keeps ForModel's size
		want  [4]uint32 // train X, train Y, test X, test Y
	}{
		{nn.LeNet, 1, 0, [4]uint32{0x1f19d2bd, 0x50cbe263, 0xfcdb86e8, 0x1ad4a9ab}},
		{nn.ResNet32, 1, 0, [4]uint32{0xdffec26b, 0x50cbe263, 0xbe28708c, 0x1ad4a9ab}},
		{nn.VGG16, 1, 0, [4]uint32{0xba2a6035, 0x62c20e5c, 0x6f65b494, 0xabb1dc68}},
		{nn.ResNet50, 1, 0, [4]uint32{0xdffec26b, 0x50cbe263, 0xbe28708c, 0x1ad4a9ab}},
		{nn.LeNet, 7, 0, [4]uint32{0xb71fd6a6, 0x50cbe263, 0xab5e60b6, 0x1ad4a9ab}},
		{nn.ResNet32, 7, 0, [4]uint32{0x120defe9, 0x50cbe263, 0xcdb5fa61, 0x1ad4a9ab}},
		{nn.VGG16, 7, 0, [4]uint32{0xa22f60f6, 0x62c20e5c, 0x34b35f71, 0xabb1dc68}},
		{nn.ResNet50, 7, 0, [4]uint32{0x120defe9, 0x50cbe263, 0xcdb5fa61, 0x1ad4a9ab}},
		{nn.LeNet, 1, 8, [4]uint32{0xb33596e0, 0x790723dc, 0xfcdb86e8, 0x1ad4a9ab}},
	}
	if len(cases) != 2*len(nn.AllModels)+1 {
		t.Fatalf("%d cases for %d models: a model was added without its pins", len(cases), len(nn.AllModels))
	}
	for _, c := range cases {
		cfg := ForModel(c.model, c.seed, 0)
		if c.train > 0 {
			cfg.Train = c.train
		}
		train, test := Synthesize(cfg)
		var got [4]uint32
		got[0], got[1] = datasetCRCs(train)
		got[2], got[3] = datasetCRCs(test)
		if got != c.want {
			t.Errorf("%s seed %d train %d: CRCs (train X, Y, test X, Y) %08x, want %08x",
				c.model, c.seed, cfg.Train, got, c.want)
		}
	}
}

// BenchmarkSynthesize times a whole synthesis: LeNet at the size a set-up
// call trains on (Train 8, the default 512-sample test set) and ResNet-32 at
// the default sizes.
func BenchmarkSynthesize(b *testing.B) {
	lenet := ForModel(nn.LeNet, 1, 0)
	lenet.Train = 8
	for _, c := range []struct {
		name string
		cfg  SynthConfig
	}{{"lenet-setup", lenet}, {"resnet32", ForModel(nn.ResNet32, 1, 0)}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Synthesize(c.cfg)
			}
		})
	}
}
