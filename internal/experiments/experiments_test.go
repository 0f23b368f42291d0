package experiments

import (
	"bytes"
	"strings"
	"testing"

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
	r := runSystem(nn.LeNet, SysCrossbow, 1, 4, 2, 2, 0.99)
	if r.ThroughputImgSec <= 0 || r.EpochSeconds <= 0 {
		t.Fatal("hardware plane missing")
	}
	if len(r.Series) == 0 {
		t.Fatal("statistical plane missing")
	}
	if r.StatBatch != 4 {
		t.Fatalf("stat batch %d for paper batch 4", r.StatBatch)
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
