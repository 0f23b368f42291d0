package experiments

import (
	"fmt"
	"io"

	"crossbow/internal/engine"
	"crossbow/internal/nn"
)

// AccuracyTargets holds the per-model test-accuracy target x of TTA(x),
// derived — as in the paper §5.1 — from the highest accuracy the baseline
// reaches in our Figure 9 reproduction.
var AccuracyTargets = map[nn.ModelID]float64{
	nn.LeNet:    0.70,
	nn.ResNet32: 0.85,
	nn.VGG16:    0.35,
	nn.ResNet50: 0.65,
}

// statBatch maps a paper batch size to the statistical plane's batch.
func statBatch(paperBatch int) int {
	b := paperBatch / 4
	if b < 4 {
		b = 4
	}
	return b
}

// Table1Row is one row of Table 1: the benchmark inventory.
type Table1Row struct {
	Model    nn.ModelID
	Dataset  string
	InputMB  float64
	Ops      int
	ModelMB  float64
	PaperOps int     // the paper's reported operator count
	PaperMB  float64 // the paper's reported model size
}

// Table1 reproduces Table 1 from the full-scale model specs.
func Table1() []Table1Row {
	paper := map[nn.ModelID]struct {
		ops int
		mb  float64
	}{
		nn.LeNet:    {24, 4.24},
		nn.ResNet32: {267, 1.79},
		nn.VGG16:    {121, 57.37},
		nn.ResNet50: {384, 97.49},
	}
	var rows []Table1Row
	for _, id := range nn.AllModels {
		s := nn.FullSpec(id)
		rows = append(rows, Table1Row{
			Model:    id,
			Dataset:  s.Dataset,
			InputMB:  s.InputMB(),
			Ops:      s.NumOps(),
			ModelMB:  s.ModelMB(),
			PaperOps: paper[id].ops,
			PaperMB:  paper[id].mb,
		})
	}
	return rows
}

// PrintTable1 writes the table in the paper's layout.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "%-10s %-12s %14s %6s %12s   (paper: ops, MB)\n",
		"Model", "Dataset", "Input (MB)", "# Ops", "Model (MB)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-12s %14.2f %6d %12.2f   (%d, %.2f)\n",
			r.Model, r.Dataset, r.InputMB, r.Ops, r.ModelMB, r.PaperOps, r.PaperMB)
	}
}

// Fig2Row is one point of Figure 2: baseline speed-up over one GPU as the
// GPU count grows, for a fixed aggregate batch size.
type Fig2Row struct {
	AggregateBatch int
	GPUs           int
	Speedup        float64
}

// Figure2 reproduces the hardware-efficiency scaling plot: S-SGD
// (TensorFlow-style) throughput speed-up vs number of GPUs for aggregate
// batch sizes 64…1024 on ResNet-32.
func Figure2() []Fig2Row {
	gpus := []int{1, 2, 4, 8}
	batches := []int{64, 128, 256, 512, 1024}
	var rows []Fig2Row
	for _, b := range batches {
		base := 0.0
		for _, g := range gpus {
			tp := engine.NewSSGD(nn.ResNet32, g, b).Throughput(25)
			if g == 1 {
				base = tp
			}
			rows = append(rows, Fig2Row{AggregateBatch: b, GPUs: g, Speedup: tp / base})
		}
	}
	return rows
}

// PrintFigure2 writes the speed-up series per batch size.
func PrintFigure2(w io.Writer, rows []Fig2Row) {
	fmt.Fprintf(w, "Figure 2 — S-SGD speed-up vs #GPUs (ResNet-32)\n")
	fmt.Fprintf(w, "%-10s %5s %8s\n", "agg.batch", "gpus", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10d %5d %8.2f\n", r.AggregateBatch, r.GPUs, r.Speedup)
	}
}

// Fig17Row is one point of Figure 17: Crossbow throughput vs learner count
// for synchronisation periods τ ∈ {1, 2, 3, ∞}.
type Fig17Row struct {
	M          int
	Tau        string
	Throughput float64 // images/s
}

// Figure17 reproduces the synchronisation-efficiency experiment: ResNet-32
// on 8 GPUs; reducing sync frequency buys only a modest throughput gain
// because the implementation overlaps synchronisation with learning.
func Figure17() []Fig17Row {
	var rows []Fig17Row
	taus := []struct {
		v    int
		name string
	}{{1, "1"}, {2, "2"}, {3, "3"}, {engine.TauNever, "inf"}}
	for _, m := range []int{1, 2, 4} {
		for _, tau := range taus {
			tp := engine.New(engine.Config{
				Model: nn.ResNet32, GPUs: 8, LearnersPerGPU: m, Batch: 64,
				Tau: tau.v, Overlap: true,
			}).Throughput(30)
			rows = append(rows, Fig17Row{M: m, Tau: tau.name, Throughput: tp})
		}
	}
	return rows
}

// PrintFigure17 writes the throughput grid.
func PrintFigure17(w io.Writer, rows []Fig17Row) {
	fmt.Fprintf(w, "Figure 17 — throughput vs sync frequency (ResNet-32, g=8)\n")
	fmt.Fprintf(w, "%3s %5s %12s\n", "m", "tau", "images/s")
	for _, r := range rows {
		fmt.Fprintf(w, "%3d %5s %12.0f\n", r.M, r.Tau, r.Throughput)
	}
}
