package experiments

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"crossbow/internal/core"
	"crossbow/internal/nn"
)

func TestTable1ShapeAgainstPaper(t *testing.T) {
	rows := Table1()
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		ratio := r.ModelMB / r.PaperMB
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("%s: model %.2f MB vs paper %.2f MB", r.Model, r.ModelMB, r.PaperMB)
		}
		opsRatio := float64(r.Ops) / float64(r.PaperOps)
		if opsRatio < 0.5 || opsRatio > 2 {
			t.Errorf("%s: %d ops vs paper %d", r.Model, r.Ops, r.PaperOps)
		}
	}
	var buf bytes.Buffer
	PrintTable1(&buf, rows)
	if !strings.Contains(buf.String(), "ILSVRC") {
		t.Fatal("printed table missing dataset names")
	}
}

func TestFigure2Shape(t *testing.T) {
	rows := Figure2()
	sp := map[[2]int]float64{}
	for _, r := range rows {
		sp[[2]int{r.AggregateBatch, r.GPUs}] = r.Speedup
	}
	// Constant per-GPU batch (aggregate 1024 = 128/GPU at g=8) must scale
	// much better than constant aggregate 64 (8/GPU at g=8).
	if sp[[2]int{1024, 8}] < 2*sp[[2]int{64, 8}] {
		t.Fatalf("speedup(1024,g8)=%v should dwarf speedup(64,g8)=%v",
			sp[[2]int{1024, 8}], sp[[2]int{64, 8}])
	}
	if sp[[2]int{1024, 8}] < 4 {
		t.Fatalf("near-linear case only reached %vx at 8 GPUs", sp[[2]int{1024, 8}])
	}
	for _, b := range []int{64, 128, 256, 512, 1024} {
		if s := sp[[2]int{b, 1}]; s != 1 {
			t.Fatalf("baseline speed-up at g=1 is %v for batch %d", s, b)
		}
	}
}

func TestFigure17Shape(t *testing.T) {
	rows := Figure17()
	tp := map[[2]string]float64{}
	for _, r := range rows {
		tp[[2]string{string(rune('0' + r.M)), r.Tau}] = r.Throughput
	}
	t1, tInf := tp[[2]string{"1", "1"}], tp[[2]string{"1", "inf"}]
	if t1 <= 0 || tInf <= t1 {
		t.Fatalf("no-sync %v should exceed τ=1 %v", tInf, t1)
	}
	gain := tInf/t1 - 1
	// §5.6: removing synchronisation buys only ~20%; accept 5-60%.
	if gain < 0.05 || gain > 0.6 {
		t.Fatalf("no-sync gain %.0f%% outside the paper's modest range", gain*100)
	}
}

func TestRunSystemComposesPlanes(t *testing.T) {
	r := run(ttaRow(nn.LeNet, core.AlgoSMA, 1, 4, 2, 2, 0.99))
	if r.ThroughputImgSec <= 0 || r.EpochSeconds <= 0 {
		t.Fatal("hardware plane missing")
	}
	if len(r.Series) == 0 {
		t.Fatal("statistical plane missing")
	}
	if r.Config.Batch != 4 {
		t.Fatalf("stat batch %d for paper batch 4", r.Config.Batch)
	}
	if r.TTASeconds != float64(r.EpochsToTarget)*r.EpochSeconds {
		t.Fatal("TTA must compose epochs × epoch time")
	}
}

func TestStatBatchMapping(t *testing.T) {
	cases := map[int]int{512: 128, 64: 16, 16: 4, 4: 4, 2: 4}
	for paper, want := range cases {
		if got := statBatch(paper); got != want {
			t.Fatalf("statBatch(%d) = %d, want %d", paper, got, want)
		}
	}
}

func TestAccuracyTargetsCoverAllModels(t *testing.T) {
	for _, id := range nn.AllModels {
		tgt, ok := AccuracyTargets[id]
		if !ok || tgt <= 0 || tgt >= 1 {
			t.Fatalf("%s: bad target %v", id, tgt)
		}
	}
}

func TestFig10ConfigsConsistent(t *testing.T) {
	for id, cfg := range fig10Configs {
		for _, g := range cfg.gpus {
			if cfg.tf[g] == 0 || cfg.cb1[g] == 0 {
				t.Fatalf("%s g=%d missing batch config", id, g)
			}
			bm := cfg.cbB[g]
			if bm[0] == 0 || bm[1] == 0 {
				t.Fatalf("%s g=%d missing best-m config", id, g)
			}
		}
	}
}

// TestRunMatchesParentCompositions pins run against the three compositions
// it replaced: runSystem (Figures 10-14), Figure 15's loop and Figure 16's
// loop. Each want row was recorded by running the replaced code, with these
// LeNet micro parameters, in a throwaway copy of the tree before it was
// deleted; every value is compared bit for bit.
func TestRunMatchesParentCompositions(t *testing.T) {
	tf := ttaRow(nn.LeNet, core.AlgoSSGD, 2, 16, 1, 2, 0.35) // runSystem's TensorFlow row
	ea := ttaRow(nn.LeNet, core.AlgoEASGD, 1, 16, 2, 2, 0.99)
	ea.solverMomentum = 0 // Figure 15's plain-SGD learners
	tau := ttaRow(nn.LeNet, core.AlgoSMA, 1, 16, 2, 2, 0.99)
	tau.cfg.Tau, tau.cfg.TrainSamples, tau.window = 2, 1024, 30 // Figure 16's row data
	for _, c := range []struct {
		name                      string
		r                         row
		tta, epochSec, throughput uint64
		acc                       []uint64
		reached                   bool
	}{
		{"tensorflow", tf, 0x401720f25a96a128, 0x401720f25a96a128, 0x40c4445c07d43699,
			[]uint64{0x3fd7400000000000}, true},
		{"easgd-plain-sgd", ea, 0x4023aa342c7610fc, 0x4013aa342c7610fc, 0x40c7d6418477fd73,
			[]uint64{0x3fd9a00000000000, 0x3fe1a00000000000}, false},
		{"sma-tau2", tau, 0x402219dff76084cc, 0x401219dff76084cc, 0x40c9e570e4c9a52e,
			[]uint64{0x3fc9c00000000000, 0x3fc3000000000000}, false},
	} {
		got := run(c.r)
		bits := func(v float64) uint64 { return math.Float64bits(v) }
		if bits(got.TTASeconds) != c.tta || bits(got.EpochSeconds) != c.epochSec ||
			bits(got.ThroughputImgSec) != c.throughput || got.Reached != c.reached {
			t.Errorf("%s: TTA %v (%#x), epoch %v (%#x), throughput %v (%#x), reached %v; want %#x, %#x, %#x, %v",
				c.name, got.TTASeconds, bits(got.TTASeconds), got.EpochSeconds, bits(got.EpochSeconds),
				got.ThroughputImgSec, bits(got.ThroughputImgSec), got.Reached,
				c.tta, c.epochSec, c.throughput, c.reached)
		}
		if len(got.Series) != len(c.acc) {
			t.Fatalf("%s: %d epochs, want %d", c.name, len(got.Series), len(c.acc))
		}
		for e, p := range got.Series {
			if bits(p.TestAcc) != c.acc[e] {
				t.Errorf("%s: epoch %d accuracy %v (%#x), want %#x", c.name, e+1, p.TestAcc, bits(p.TestAcc), c.acc[e])
			}
		}
		if bits(got.BestAccuracy) != slices.Max(c.acc) {
			t.Errorf("%s: best accuracy %v is not the series' best", c.name, got.BestAccuracy)
		}
	}
}
