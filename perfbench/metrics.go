package main

import (
	"fmt"
	"io"
	"strings"
)

// metricDef is one reported metric. For a per-layer metric, moves names the
// end-to-end metric and workload a change to that layer should move, and on
// lists the workloads that exercise the layer (nil: all). A traced run of
// any other workload reports the metric as 0.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening, as a share of the parent's median
	moves              string
	on                 []string
}

// workloadWhy records why each workload is in the benchmark.
var workloadWhy = []struct{ name, why string }{
	{"edge-b1", "batch-1 closed loop, one caller: the paper's single-image edge user; extraction dominates, batcher and HTTP idle"},
	{"online-open", "open-loop Poisson users through the micro-batcher at a fixed rate ladder; queueing and batching dominate"},
	{"bulk-int8", "offline 256-image int8 batches: quantized kernels, int8 fused blocks and chunk pipelining dominate"},
	{"cluster-http", "2 HTTP callers to a router over 2 D-sharded shard servers, tail-heavy model: codec, fan-out and merge dominate"},
}

const (
	wlEdge    = "edge-b1"
	wlOnline  = "online-open"
	wlBulk    = "bulk-int8"
	wlCluster = "cluster-http"
)

// runSeconds is the measured length of one run that BENCHMARK.json asks
// for.
const runSeconds = 20

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "latency_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "throughput_ips", unit: "1/s", better: "higher", bound: 0.25},
	{name: "goodput_rps", unit: "1/s", better: "higher", bound: 0.25},
	{name: "live_heap_mb", unit: "MiB", better: "lower", bound: 0.1},
}

// ladder is online-open's offered request rates: three well below what the
// batcher serves on a 2-vCPU host (about 900–1300 req/s, which moves with
// other load on the host) so that they pass the latency limit in every
// round, and one past it.
var ladder = []int{200, 250, 300, 1600}

var perLayer = func() []metricDef {
	floatWL := []string{wlEdge, wlOnline, wlCluster}
	defs := []metricDef{
		{name: "engine.extract_us", unit: "us", better: "lower", moves: "latency_p50_us on edge-b1, throughput_ips on bulk-int8"},
		{name: "engine.manifold_us", unit: "us", better: "lower", moves: "throughput_ips on cluster-http"},
		{name: "engine.tail_us", unit: "us", better: "lower", moves: "throughput_ips on cluster-http"},
		{name: "engine.overhead_us", unit: "us", better: "lower", moves: "latency_p50_us on edge-b1"},
		{name: "engine.compile_s", unit: "s", better: "lower", moves: "setup_s on every workload"},
		{name: "engine.model_bytes", unit: "B", better: "lower", moves: "live_heap_mb on every workload"},
		{name: "engine.arena_bytes", unit: "B", better: "lower", moves: "live_heap_mb on every workload"},
	}
	for _, k := range nnKinds {
		defs = append(defs, metricDef{name: "nn." + k + "_us", unit: "us", better: "lower", moves: "latency_p50_us on edge-b1"})
	}
	defs = append(defs, []metricDef{
		{name: "nn.extract_gflops", unit: "GFLOP/s", better: "higher", moves: "latency_p50_us on edge-b1", on: floatWL},
		{name: "quant.int8_covered", unit: "count", better: "higher", moves: "throughput_ips on bulk-int8", on: []string{wlBulk}},
		{name: "quant.int8_total", unit: "count", better: "higher", moves: "throughput_ips on bulk-int8", on: []string{wlBulk}},
		{name: "quant.extract_gops", unit: "GOP/s", better: "higher", moves: "throughput_ips on bulk-int8", on: []string{wlBulk}},
		{name: "roofline.extract_peak_share", unit: "share", better: "higher", moves: "latency_p50_us on edge-b1"},
		{name: "roofline.manifold_gflops", unit: "GFLOP/s", better: "higher", moves: "throughput_ips on cluster-http"},
		{name: "roofline.manifold_peak_share", unit: "share", better: "higher", moves: "throughput_ips on cluster-http"},
		{name: "roofline.tail_gflops", unit: "GFLOP/s", better: "higher", moves: "throughput_ips on cluster-http"},
		{name: "roofline.tail_peak_share", unit: "share", better: "higher", moves: "throughput_ips on cluster-http"},
		{name: "tensor.gemm_peak_gflops", unit: "GFLOP/s", better: "higher", moves: "latency_p50_us on edge-b1 (through extract)"},
		{name: "tensor.proj_gemm_gflops", unit: "GFLOP/s", better: "higher", moves: "throughput_ips on cluster-http (through tail)"},
		{name: "tensor.int8_gemm_gops", unit: "GOP/s", better: "higher", moves: "throughput_ips on bulk-int8 (through extract)"},
		{name: "tensor.popcount_ns", unit: "ns", better: "lower", moves: "throughput_ips on cluster-http (through tail)"},
		{name: "hdc.encode_us", unit: "us", better: "lower", moves: "throughput_ips on cluster-http"},
		{name: "hdlearn.score_us", unit: "us", better: "lower", moves: "throughput_ips on cluster-http"},
		{name: "parallel.for_p50_us", unit: "us", better: "lower", moves: "latency_p50_us on edge-b1"},
		{name: "parallel.for_p99_us", unit: "us", better: "lower", moves: "throughput_ips on edge-b1 (through tail.latency_p90_us)"},
		{name: "batcher.mean_batch", unit: "count", better: "higher", moves: "goodput_rps on online-open", on: []string{wlOnline}},
		{name: "batcher.flushes", unit: "count", better: "lower", moves: "goodput_rps on online-open", on: []string{wlOnline}},
		{name: "batcher.refused", unit: "count", better: "lower", moves: "goodput_rps on online-open", on: []string{wlOnline}},
		{name: "batcher.canceled", unit: "count", better: "lower", moves: "goodput_rps on online-open", on: []string{wlOnline}},
		{name: "batcher.served_share", unit: "share", better: "higher", moves: "goodput_rps on online-open", on: []string{wlOnline}},
	}...)
	for _, rate := range ladder {
		for _, q := range []string{"p50", "p90"} {
			defs = append(defs, metricDef{name: fmt.Sprintf("online.latency_%s_us.r%d", q, rate), unit: "us", better: "lower",
				moves: "goodput_rps on online-open (the r200 median is its latency_p50_us)", on: []string{wlOnline}})
		}
	}
	defs = append(defs, []metricDef{
		{name: "http.front_us", unit: "us", better: "lower", moves: "latency_p50_us on cluster-http", on: []string{wlCluster}},
		{name: "http.shard_us", unit: "us", better: "lower", moves: "latency_p50_us on cluster-http", on: []string{wlCluster}},
		{name: "router.self_us", unit: "us", better: "lower", moves: "latency_p50_us on cluster-http", on: []string{wlCluster}},
		{name: "router.retries", unit: "count", better: "lower", moves: "throughput_ips on cluster-http", on: []string{wlCluster}},
		{name: "router.hedges", unit: "count", better: "lower", moves: "throughput_ips on cluster-http", on: []string{wlCluster}},
		{name: "router.errors", unit: "count", better: "lower", moves: "throughput_ips on cluster-http", on: []string{wlCluster}},
		{name: "wire.bytes_per_image", unit: "B", better: "lower", moves: "throughput_ips on cluster-http", on: []string{wlCluster}},
		{name: "runtime.gc_pause_p99_us", unit: "us", better: "lower", moves: "throughput_ips on edge-b1, latency_p50_us on online-open"},
		{name: "runtime.sched_lat_p99_us", unit: "us", better: "lower", moves: "throughput_ips on edge-b1, latency_p50_us on online-open"},
		{name: "runtime.allocs_per_image", unit: "count", better: "lower", moves: "throughput_ips on edge-b1 (0 expected there)"},
		{name: "runtime.gc_cycles", unit: "count", better: "lower", moves: "throughput_ips on edge-b1, latency_p50_us on online-open"},
		{name: "tail.latency_p90_us", unit: "us", better: "lower", moves: "throughput_ips on edge-b1 and cluster-http: tails set a closed loop's rate"},
		{name: "tail.latency_p99_us", unit: "us", better: "lower", moves: "throughput_ips on edge-b1 and cluster-http: tails set a closed loop's rate"},
		{name: "core.fixture_s", unit: "s", better: "lower", moves: "setup_s on every workload"},
		{name: "gen.lag_p99_us", unit: "us", better: "lower", moves: "validity of an online-open run", on: []string{wlOnline}},
		{name: "gen.sent", unit: "count", better: "higher", moves: "validity of an online-open run", on: []string{wlOnline}},
		{name: "gen.completed", unit: "count", better: "higher", moves: "validity of an online-open run", on: []string{wlOnline}},
		{name: "fail_share", unit: "share", better: "lower", moves: "goodput_rps and throughput_ips on every workload"},
		{name: "trace.overhead_us", unit: "us", better: "lower", moves: "none: traced minus untraced request latency"},
	}...)
	return defs
}()

// applies reports whether the workload exercises the metric's layer.
func (d metricDef) applies(workload string) bool {
	if d.on == nil {
		return true
	}
	for _, w := range d.on {
		if w == workload {
			return true
		}
	}
	return false
}

func printMetricTable(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloadWhy {
		fmt.Fprintf(w, "  %-13s %s\n", wl.name, wl.why)
	}
	fmt.Fprintln(w, "end-to-end (--trace 0):")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-30s %-8s %-6s bound %.2f\n", d.name, d.unit, d.better, d.bound)
	}
	fmt.Fprintln(w, "per-layer (--trace 1):")
	for _, d := range perLayer {
		on := "all workloads"
		if d.on != nil {
			on = strings.Join(d.on, ", ")
		}
		fmt.Fprintf(w, "  %-30s %-8s measured on %s; moves %s\n", d.name, d.unit, on, d.moves)
	}
}
