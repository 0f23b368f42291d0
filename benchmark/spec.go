package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// The four workloads. README.md records why each exists.
const (
	wlTrainResNet = "train-resnet32"
	wlTrainLeNet  = "train-lenet-fcfs"
	wlServe       = "serve-resnet32"
	wlCluster     = "cluster-tcp-resnet32"
)

var workloadNames = []string{wlTrainResNet, wlTrainLeNet, wlServe, wlCluster}

// metricDef declares one metric. Bound is the relative worsening allowed
// before a change counts as a regression (AbsBound: the same in the metric's
// own unit); zero means reported but not gated.
type metricDef struct {
	Name     string
	Unit     string
	Better   string // "higher" or "lower"
	Bound    float64
	AbsBound float64
}

// gated are BENCHMARK.json's end_to_end metrics: the four quantities every
// workload has, so the driver can hold each workload to them. Which named
// metric below feeds each one is set by gatedSource.
var gated = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "images_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// gatedSource maps each gated metric to the workload's named metric.
var gatedSource = map[string]map[string]string{
	wlTrainResNet: {"setup_s": "setup_s", "images_per_s": "train_images_per_s", "latency_ms": "train_iter_ms", "wall_s": "train_wall_s"},
	wlTrainLeNet:  {"setup_s": "setup_s", "images_per_s": "train_images_per_s", "latency_ms": "train_iter_ms", "wall_s": "train_wall_s"},
	wlServe:       {"setup_s": "setup_s", "images_per_s": "serve_capacity_rps", "latency_ms": "serve_p99_ms", "wall_s": "serve_wall_s"},
	wlCluster:     {"setup_s": "setup_s", "images_per_s": "cluster_images_per_s", "latency_ms": "cluster_round_ms", "wall_s": "cluster_wall_s"},
}

// named are the workload-specific end-to-end metrics, printed by every
// untraced run and compared by -compare. A workload reports the rows that
// apply to it.
var named = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "train_images_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
	{Name: "train_iter_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "train_wall_s", Unit: "s", Better: "lower", Bound: 0.10},
	{Name: "tta_s", Unit: "s", Better: "lower", Bound: 0.10},
	{Name: "test_acc_final", Unit: "fraction", Better: "higher", AbsBound: 0.02},
	{Name: "serve_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "serve_p99_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "serve_lo_p99_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "serve_swap_p99_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "serve_capacity_rps", Unit: "1/s", Better: "higher", Bound: 0.10},
	{Name: "serve_ok_share", Unit: "fraction", Better: "higher", AbsBound: 0.005},
	{Name: "serve_wall_s", Unit: "s", Better: "lower", Bound: 0.10},
	{Name: "cluster_images_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
	{Name: "cluster_round_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "cluster_exposed_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "cluster_overlap_exposed_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "cluster_wire_bytes_per_round", Unit: "bytes", Better: "lower", Bound: 0.001},
	{Name: "cluster_wall_s", Unit: "s", Better: "lower", Bound: 0.10},
}

var layerKinds = []string{"conv2d", "batchnorm", "relu", "residual", "pool", "dense"}

// perLayer are BENCHMARK.json's per_layer metrics, from the traced run. A
// layer a workload does not exercise reports zero work.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lo, hi := "lower", "higher"
	d := []metricDef{
		{Name: "data.stage_batches_per_s", Unit: "1/s", Better: hi},
		{Name: "data.stage_headroom_x", Unit: "x", Better: hi},
		{Name: "data.synthesize_s", Unit: "s", Better: lo},

		{Name: "engine.task_busy_s", Unit: "s", Better: lo},
		{Name: "engine.sync_busy_s", Unit: "s", Better: lo},
		{Name: "engine.mem_busy_s", Unit: "s", Better: lo},
		{Name: "engine.barrier_skew_us_p50", Unit: "us", Better: lo},
		{Name: "engine.dispatch_overhead_us_p50", Unit: "us", Better: lo},
		{Name: "engine.round_waits", Unit: "count", Better: lo},
		{Name: "engine.max_lead_iters", Unit: "count", Better: lo},
		{Name: "engine.unattributed_share", Unit: "fraction", Better: lo},
		{Name: "engine.epoch_s_p90", Unit: "s", Better: lo},

		{Name: "core.sma_step_us_p50", Unit: "us", Better: lo},
		{Name: "core.sma_share", Unit: "fraction", Better: lo},
		{Name: "core.sma_contribute_us_p50", Unit: "us", Better: lo},
		{Name: "core.sma_apply_us_p50", Unit: "us", Better: lo},
		{Name: "core.eval_s_per_epoch", Unit: "s", Better: lo},
		{Name: "core.dist_fold_us_p50", Unit: "us", Better: lo},

		{Name: "nn.task_us_p50", Unit: "us", Better: lo},
		{Name: "nn.fwd_us_p50", Unit: "us", Better: lo},
		{Name: "nn.loss_us_p50", Unit: "us", Better: lo},
		{Name: "nn.bwd_us_p50", Unit: "us", Better: lo},
	}
	for _, dir := range []string{"fwd", "bwd"} {
		for _, k := range layerKinds {
			d = append(d, metricDef{Name: "nn." + dir + "_us." + k, Unit: "us", Better: lo})
		}
	}
	return append(d, []metricDef{
		{Name: "nn.predict_us_b1", Unit: "us", Better: lo},
		{Name: "nn.predict_us_b8", Unit: "us", Better: lo},
		{Name: "nn.task_allocs", Unit: "count", Better: lo},

		{Name: "tensor.gemm_us_per_task", Unit: "us", Better: lo},
		{Name: "tensor.im2col_us_per_task", Unit: "us", Better: lo},
		{Name: "tensor.col2im_us_per_task", Unit: "us", Better: lo},
		{Name: "tensor.elem_us_per_task", Unit: "us", Better: lo},
		{Name: "tensor.gemm_share_of_task", Unit: "fraction", Better: lo},
		{Name: "tensor.flops_per_task", Unit: "count", Better: lo},
		{Name: "tensor.gemm_gflops_det", Unit: "gflop/s", Better: hi},
		{Name: "tensor.gemm_gflops_fast", Unit: "gflop/s", Better: hi},

		{Name: "memplan.acquire_us_p50", Unit: "us", Better: lo},
		{Name: "memplan.acquire_us_p99", Unit: "us", Better: lo},
		{Name: "memplan.pool_hit_rate", Unit: "fraction", Better: hi},
		{Name: "memplan.budget_waits", Unit: "count", Better: lo},
		{Name: "memplan.pool_peak_bytes", Unit: "bytes", Better: lo},
		{Name: "memplan.arena_bytes_per_task", Unit: "bytes", Better: lo},
		{Name: "mem.allocs_per_iter", Unit: "count", Better: lo},
		{Name: "mem.gc_pause_ms", Unit: "ms", Better: lo},

		{Name: "serve.batch_occupancy.lo", Unit: "count", Better: hi},
		{Name: "serve.batch_occupancy.mid", Unit: "count", Better: hi},
		{Name: "serve.service_p50_ms", Unit: "ms", Better: lo},
		{Name: "serve.service_p99_ms", Unit: "ms", Better: lo},
		{Name: "serve.queue_fill_ms_p50", Unit: "ms", Better: lo},
		{Name: "serve.queue_peak", Unit: "count", Better: lo},
		{Name: "serve.shed", Unit: "count", Better: lo},
		{Name: "serve.update_model_us_p50", Unit: "us", Better: lo},
		{Name: "serve.swaps", Unit: "count", Better: hi},
		{Name: "serve.adaptive_p99_ms", Unit: "ms", Better: lo},
		{Name: "serve.adaptive_cur_batch", Unit: "count", Better: lo},
		{Name: "serve.slo_breaches", Unit: "count", Better: lo},
		{Name: "serve.gen_lag_ms_p99", Unit: "ms", Better: lo},

		{Name: "transport.allreduce_us_p50", Unit: "us", Better: lo},
		{Name: "transport.barrier_us_per_round", Unit: "us", Better: lo},
		{Name: "transport.reduce_scatter_us_per_round", Unit: "us", Better: lo},
		{Name: "transport.all_gather_us_per_round", Unit: "us", Better: lo},
		{Name: "transport.frames_per_round", Unit: "count", Better: lo},
		{Name: "transport.aborts", Unit: "count", Better: lo},
		{Name: "transport.restart_rounds", Unit: "count", Better: lo},
		{Name: "transport.overlap_hidden_share", Unit: "fraction", Better: hi},
		{Name: "transport.idle_allreduce_us_p50", Unit: "us", Better: lo},

		{Name: "sim.hardware_plane_s", Unit: "s", Better: lo},
		{Name: "bench.trace_overhead_pct", Unit: "%", Better: lo},
	}...)
}

func defsByName(defs []metricDef) map[string]metricDef {
	m := make(map[string]metricDef, len(defs))
	for _, d := range defs {
		m[d.Name] = d
	}
	return m
}

// value is one measured metric: the number, its unit and how many samples
// the number summarises.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// report collects one run's metrics, operation counts and check verdicts.
type report struct {
	defs    map[string]metricDef
	metrics map[string]value
	info    []string // free-form lines (p99.9 with sample counts, breakdown tables)

	attempted, failed int
	failures          []string
}

func newReport(defs []metricDef) *report {
	return &report{defs: defsByName(defs), metrics: map[string]value{}}
}

// set records a metric. Setting an undeclared name, or a name twice, is a
// bug in the benchmark, not in the program under test.
func (r *report) set(name string, v float64, samples int) {
	d, ok := r.defs[name]
	if !ok {
		panic("benchmark: metric " + name + " is not declared")
	}
	if _, dup := r.metrics[name]; dup {
		panic("benchmark: metric " + name + " set twice")
	}
	r.metrics[name] = value{Value: v, Unit: d.Unit, Samples: samples}
}

func (r *report) get(name string) float64 { return r.metrics[name].Value }

// ops adds operations to the attempted/failed ledger.
func (r *report) ops(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// check records one correctness check: an attempted operation that failed
// when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// opsf adds operations to the ledger and, when some failed, says which.
func (r *report) opsf(attempted, failed int, format string, args ...any) {
	r.ops(attempted, failed)
	if failed > 0 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) notef(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// print writes every metric by name with unit, sample count and bound.
func (r *report) print(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			continue
		}
		bound := "-"
		switch {
		case d.Bound > 0:
			bound = fmt.Sprintf("%g rel", d.Bound)
		case d.AbsBound > 0:
			bound = fmt.Sprintf("%g abs", d.AbsBound)
		}
		fmt.Fprintf(w, "  %-40s %14.6g %-9s n=%-7d %-6s bound %s\n", d.Name, v.Value, d.Unit, v.Samples, d.Better, bound)
	}
	for _, line := range r.info {
		fmt.Fprintln(w, "  "+line)
	}
	fmt.Fprintf(w, "  operations: attempted %d, failed %d\n", r.attempted, r.failed)
	sort.Strings(r.failures)
	for _, f := range r.failures {
		fmt.Fprintln(w, "  FAILED: "+f)
	}
}
