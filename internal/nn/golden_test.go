package nn

import (
	"hash/crc32"
	"math"
	"testing"

	"crossbow/internal/tensor"
)

// golden pins absolute values: CRC-32 (IEEE) of the parameter vector after
// three seeded LossAndGrad + plain-SGD steps, and of the eval-mode logits of
// the trained model on the last batch, unfused and fused. The constants were
// recorded by running this test at the commit before activations went
// channel-major (31b01f4), with SIMD and under CROSSBOW_NOSIMD=1 (equal), so
// any change to a per-element summation order, an association or a rounding
// anywhere under internal/nn or internal/tensor's deterministic kernels
// shows up here as a changed constant, not as a diff between two benchmark
// runs read by eye.
var golden = map[ModelID]map[int][3]uint32{
	LeNet:    {1: {0x2a23338d, 0x63fabce7, 0x63fabce7}, 4: {0xef44b0b7, 0x4a4f437a, 0x4a4f437a}, 5: {0xb9352b66, 0x07aa7f0e, 0x07aa7f0e}},
	ResNet32: {1: {0x706c0512, 0xa788c28f, 0xa788c28f}, 4: {0xafff963c, 0x04b18df0, 0x04b18df0}, 5: {0xad3254f0, 0x0baee641, 0x0baee641}},
	VGG16:    {1: {0x38fb1392, 0x1115fc55, 0x1115fc55}, 4: {0x89dd720b, 0x8f14afdd, 0x8f14afdd}, 5: {0xbcafe3da, 0xd715bbf9, 0xd715bbf9}},
	ResNet50: {1: {0xd940acdf, 0x65541068, 0x65541068}, 4: {0xf19d2ac8, 0xeaf5d392, 0xeaf5d392}, 5: {0x60f97007, 0xce5147f0, 0xce5147f0}},
}

func crcFloats(v []float32) uint32 {
	b := make([]byte, 0, 4*len(v))
	for _, f := range v {
		u := math.Float32bits(f)
		b = append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	}
	return crc32.ChecksumIEEE(b)
}

// goldenRun trains id for three steps at the given batch size and returns
// the CRCs of the parameters, the unfused and the fused eval-mode logits.
func goldenRun(id ModelID, batch int) [3]uint32 {
	net := BuildScaled(id, batch, tensor.NewRNG(1))
	w := net.Init(tensor.NewRNG(2))
	g := make([]float32, net.ParamSize())
	net.Bind(w, g)
	r := tensor.NewRNG(3)
	x := tensor.New(append([]int{batch}, net.InShape...)...)
	labels := make([]int, batch)
	for step := 0; step < 3; step++ {
		for i := range x.Data() {
			x.Data()[i] = float32(r.NormFloat64())
		}
		for i := range labels {
			labels[i] = r.Intn(net.Classes)
		}
		clear(g)
		net.LossAndGrad(x, labels)
		for i, gi := range g {
			w[i] -= 0.05 * gi
		}
	}
	out := [3]uint32{crcFloats(w)}
	for i, fuse := range []bool{false, true} {
		eval := BuildScaled(id, batch, tensor.NewRNG(1))
		if fuse {
			eval.FuseInference()
		}
		eval.Bind(w, g)
		out[1+i] = crcFloats(eval.Forward(x, false).Data())
	}
	return out
}

func TestGoldenCRCs(t *testing.T) {
	for _, id := range AllModels {
		for _, batch := range []int{1, 4, 5} {
			if got, want := goldenRun(id, batch), golden[id][batch]; got != want {
				t.Errorf("%s b=%d: params/logits/fused-logits CRCs {%#08x, %#08x, %#08x}, want {%#08x, %#08x, %#08x}",
					id, batch, got[0], got[1], got[2], want[0], want[1], want[2])
			}
		}
	}
}
