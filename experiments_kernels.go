package crossbow

// Kernel microbenchmark experiment: times the compute-substrate kernels at
// the shapes the scaled benchmark models actually run plus one end-to-end
// statistical-plane epoch, so perf PRs can demonstrate their effect with
// `crossbow-bench -exp kernels` and compare against the committed
// BENCH_kernels.json baseline.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"crossbow/internal/core"
	"crossbow/internal/nn"
	"crossbow/internal/tensor"
)

// KernelBenchRow is one timed kernel at one shape.
type KernelBenchRow struct {
	Kernel string `json:"kernel"`
	Shape  string `json:"shape"`
	// Mode is the kernel mode the row ran under ("deterministic" or
	// "fast") for mode-dispatched kernels, empty for mode-independent ones.
	Mode    string  `json:"mode,omitempty"`
	NsPerOp float64 `json:"ns_per_op"`
	// GFLOPs is the achieved rate for kernels with a meaningful FLOP count
	// (2·m·k·n for GEMM), zero otherwise.
	GFLOPs float64 `json:"gflops,omitempty"`
}

// KernelBenchReport is the JSON document written to BENCH_kernels.json.
type KernelBenchReport struct {
	GOOS        string           `json:"goos"`
	GOARCH      string           `json:"goarch"`
	CPUs        int              `json:"cpus"`
	Parallelism int              `json:"kernel_parallelism"`
	Generated   string           `json:"generated"`
	Rows        []KernelBenchRow `json:"rows"`
}

// benchIt runs fn repeatedly until the measurement window is filled and
// returns nanoseconds per call.
func benchIt(quick bool, fn func()) float64 {
	window := 300 * time.Millisecond
	if quick {
		window = 60 * time.Millisecond
	}
	fn() // warm caches and scratch pools
	var n int
	start := time.Now()
	for {
		fn()
		n++
		if e := time.Since(start); e >= window {
			return float64(e.Nanoseconds()) / float64(n)
		}
	}
}

// KernelBench times the compute substrate. quick shrinks measurement
// windows and the end-to-end epoch for the smoke path.
func KernelBench(quick bool) []KernelBenchRow {
	var rows []KernelBenchRow
	r := tensor.NewRNG(1)
	norm := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = float32(r.NormFloat64())
		}
		return s
	}

	// GEMM at the ResNet-32 stages' batched forward shapes (b=16), LeNet's
	// classifier gradient, and a square blocking stressor.
	gemmShapes := []struct {
		name    string
		m, k, n int
	}{
		{"resnet32-s1", 8, 72, 1024},
		{"resnet32-s2", 16, 144, 256},
		{"resnet32-s3", 32, 288, 64},
		{"dense-bwd", 32, 144, 16},
		{"sq256", 256, 256, 256},
	}
	for _, s := range gemmShapes {
		a, at := norm(s.m*s.k), norm(s.k*s.m)
		b, bt := norm(s.k*s.n), norm(s.n*s.k)
		c := make([]float32, s.m*s.n)
		flops := float64(2 * s.m * s.k * s.n)
		shape := fmt.Sprintf("m=%d k=%d n=%d", s.m, s.k, s.n)
		for _, mode := range []tensor.KernelMode{tensor.Deterministic, tensor.Fast} {
			mode := mode
			ms := mode.String()
			ns := benchIt(quick, func() { tensor.GemmMode(mode, 1, a, s.m, s.k, b, s.n, 0, c) })
			rows = append(rows, KernelBenchRow{Kernel: "Gemm", Shape: shape, Mode: ms, NsPerOp: ns, GFLOPs: flops / ns})
			ns = benchIt(quick, func() { tensor.GemmTAMode(mode, 1, at, s.k, s.m, b, s.n, 0, c) })
			rows = append(rows, KernelBenchRow{Kernel: "GemmTA", Shape: shape, Mode: ms, NsPerOp: ns, GFLOPs: flops / ns})
			ns = benchIt(quick, func() { tensor.GemmTBMode(mode, 1, a, s.m, s.k, bt, s.n, 0, c) })
			rows = append(rows, KernelBenchRow{Kernel: "GemmTB", Shape: shape, Mode: ms, NsPerOp: ns, GFLOPs: flops / ns})
		}
	}

	// Batched conv lowering: the ResNet-32 stage geometries at b=16 and at
	// the benchmark workload's b=4 (plane-shift tables), then the stage
	// transitions' strided 3×3 convs and 1×1 projections at b=4
	// (source-index table).
	type lowerCase struct {
		shape string
		g     tensor.ConvGeom
		batch int
	}
	stages := []tensor.ConvGeom{
		{InC: 8, InH: 8, InW: 8, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{InC: 16, InH: 4, InW: 4, OutC: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{InC: 32, InH: 2, InW: 2, OutC: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
	}
	var lowerCases []lowerCase
	for _, batch := range []int{16, 4} {
		for _, g := range stages {
			lowerCases = append(lowerCases, lowerCase{fmt.Sprintf("c%dh%d b%d", g.InC, g.InH, batch), g, batch})
		}
	}
	for _, g := range stages[:2] {
		g.OutC, g.StrideH, g.StrideW = 2*g.InC, 2, 2
		lowerCases = append(lowerCases, lowerCase{fmt.Sprintf("c%dh%d s2 b4", g.InC, g.InH), g, 4})
		g.KH, g.KW, g.PadH, g.PadW = 1, 1, 0, 0
		lowerCases = append(lowerCases, lowerCase{fmt.Sprintf("c%dh%d k1 s2 b4", g.InC, g.InH), g, 4})
	}
	for _, c := range lowerCases {
		g, batch := c.g, c.batch
		x := norm(batch * g.InVol())
		col := make([]float32, g.ColRows()*batch*g.ColCols())
		ns := benchIt(quick, func() { tensor.Im2colBatch(g, batch, x, col, true) })
		rows = append(rows, KernelBenchRow{Kernel: "Im2colBatch", Shape: c.shape, NsPerOp: ns})
		dcol := norm(g.ColRows() * batch * g.ColCols())
		dx := make([]float32, batch*g.InVol())
		ns = benchIt(quick, func() { tensor.Col2imBatch(g, batch, dcol, dx) })
		rows = append(rows, KernelBenchRow{Kernel: "Col2imBatch", Shape: c.shape, NsPerOp: ns})
	}

	// Flat vector kernels at model-vector sizes (scaled ResNet-32 ≈ 20k
	// parameters; 500k matches the optimiser-path benchmark). Dot's result
	// is accumulated into a sink so the call cannot be hollowed out.
	var dotSink float64
	for _, n := range []int{20_000, 500_000} {
		x, y := norm(n), norm(n)
		shape := fmt.Sprintf("n=%d", n)
		ns := benchIt(quick, func() { tensor.Axpy(0.5, x, y) })
		rows = append(rows, KernelBenchRow{Kernel: "Axpy", Shape: shape, NsPerOp: ns, GFLOPs: 2 * float64(n) / ns})
		ns = benchIt(quick, func() { dotSink += tensor.Dot(x, y) })
		rows = append(rows, KernelBenchRow{Kernel: "Dot", Shape: shape, NsPerOp: ns, GFLOPs: 2 * float64(n) / ns})
	}
	if dotSink == math.Inf(1) {
		fmt.Fprintln(os.Stderr, "kernel bench: dot overflow")
	}

	// End-to-end: one ResNet-32 statistical-plane epoch (the §5 hot path),
	// in both kernel modes so the fast path's end-to-end effect is on
	// record next to the per-kernel rates.
	for _, mode := range []tensor.KernelMode{tensor.Deterministic, tensor.Fast} {
		cfg := core.TrainConfig{
			Model: nn.ResNet32, Algo: core.AlgoSMA, Momentum: 0.9,
			MaxEpochs: 1, Seed: 1, KernelMode: mode,
		}
		if quick {
			cfg.TrainSamples, cfg.TestSamples = 512, 128
		}
		samples := cfg.TrainSamples
		if samples == 0 {
			samples = 2048 // data.ForModel's default training-set size
		}
		start := time.Now()
		core.Train(cfg)
		rows = append(rows, KernelBenchRow{
			Kernel: "EpochResNet32", Shape: fmt.Sprintf("samples=%d", samples),
			Mode: mode.String(), NsPerOp: float64(time.Since(start).Nanoseconds()),
		})
	}
	return rows
}

// PrintKernelBench renders the kernel table.
func PrintKernelBench(w io.Writer, rows []KernelBenchRow) {
	fmt.Fprintf(w, "Kernel microbenchmarks (parallelism=%d)\n", tensor.Parallelism())
	fmt.Fprintf(w, "%-14s %-18s %-13s %14s %10s\n", "kernel", "shape", "mode", "ns/op", "GFLOP/s")
	for _, r := range rows {
		g := ""
		if r.GFLOPs > 0 {
			g = fmt.Sprintf("%10.2f", r.GFLOPs)
		}
		fmt.Fprintf(w, "%-14s %-18s %-13s %14.0f %s\n", r.Kernel, r.Shape, r.Mode, r.NsPerOp, g)
	}
}

// WriteKernelBenchJSON records the rows (plus environment) at path.
func WriteKernelBenchJSON(path string, rows []KernelBenchRow) error {
	rep := KernelBenchReport{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUs: runtime.NumCPU(), Parallelism: tensor.Parallelism(),
		Generated: time.Now().UTC().Format(time.RFC3339),
		Rows:      rows,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
