package main

import (
	"encoding/json"
	"time"
)

// workload is one of the benchmark's input sets.
type workload struct {
	name string
	why  string
	// start sets the workload up and warms it up.
	start func(plan) (pass, error)
	// cross is the measured window of the workload's short pass, run
	// beside the focus in a traced run for its per-layer numbers.
	cross time.Duration
	// gated workloads report the end-to-end metrics and are the ones
	// BENCHMARK.json lists; the others report per-layer numbers only.
	gated bool
}

// workloads, in the order they run. BENCHMARK.json repeats name and why of
// the gated ones. serve_mix is not gated: an open loop's latency at a fixed
// rate has no bare reference to be divided by — how long a request queues
// follows how fast the box is, and not in proportion — and its medians moved
// 6–34 % from run to run of the same code, so it reports per-layer numbers
// (traced runs, and runs of all workloads) and stands behind no bound.
var workloads = []workload{
	{"small_calls", "64 B echo calls, one at a time and fanned over a 16-member collection: per-call cost in wire, bufpool, transport, rmi and collection; core, pagedev and kernel idle",
		startSmallCalls, 600 * time.Millisecond, true},
	{"serve_mix", "open-loop arrivals at fixed rates through the pooled front door: admission, priorities and mailbox queueing work; latency rises before throughput stops",
		startServeMix, 3600 * time.Millisecond, false},
	{"array_stream", "whole-array Write and Read of a 128 MiB paged float64 array, plain and 2-way replicated: bytes-bound, per-message cost amortised over 256 KiB pages",
		startArrayStream, 600 * time.Millisecond, true},
	{"owner_compute", "collectives and a fused chain executed inside the devices, on two devices and on one: the row engine, kernels and page load/store work; rmi is almost idle",
		startOwnerCompute, 1200 * time.Millisecond, true},
	{"pfft", "the paper's flagship: a 128^3 3D FFT by one worker per machine exchanging transpose blocks by remote calls, and by one worker alone; the array stack is idle",
		startPFFT, 900 * time.Millisecond, true},
}

// gatedWorkloads are the ones BENCHMARK.json lists.
func gatedWorkloads() []*workload {
	var out []*workload
	for i := range workloads {
		if workloads[i].gated {
			out = append(out, &workloads[i])
		}
	}
	return out
}

func workloadNamed(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDecl declares one metric; BENCHMARK.json repeats the lists below
// and bench_test.go holds the two together.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

const (
	lower  = "lower"
	higher = "higher"
)

// primary is the end-to-end metric tracing overhead is judged on.
const primary = "op_x_bare"

// endToEnd are the metrics the driver holds a later change to; every run
// of a gated workload reports all of them. op_x_bare is the time of the
// workload's operation as a multiple of its bare reference in the same
// round, alt_x_bare the same for the workload's variant (README.md says
// what each workload's operation, variant and references are); the times
// themselves are per-layer numbers, printed beside them. The bounds are the
// widest the driver allows: the quotients moved 2–7 % from run to run on
// the reference box (baseline/spread.txt) while the times moved 16–33 %.
var endToEnd = []metricDecl{
	{"setup_s", "s", lower, 0.25},
	{"op_x_bare", "x", lower, 0.25},
	{"alt_x_bare", "x", lower, 0.25},
}

func declOf(name string) *metricDecl {
	for i := range endToEnd {
		if endToEnd[i].Name == name {
			return &endToEnd[i]
		}
	}
	return nil
}

// perLayer are the single-layer metrics of a traced run, named
// layer.metric after this repository's packages. They carry no bound.
var perLayer = []metricDecl{
	{Name: "calib.memcpy_GBps", Unit: "GB/s", Better: higher},
	{Name: "calib.memcpy_page_GBps", Unit: "GB/s", Better: higher},
	{Name: "calib.tcp_rtt_us", Unit: "us", Better: lower},
	{Name: "calib.relay_rtt_us", Unit: "us", Better: lower},
	{Name: "calib.relay_fan_us", Unit: "us", Better: lower},
	{Name: "calib.stream_MBps", Unit: "MB/s", Better: higher},
	{Name: "calib.flat_sweep_Melem_per_s", Unit: "Melem/s", Better: higher},
	{Name: "calib.flat_sweep2_Melem_per_s", Unit: "Melem/s", Better: higher},
	{Name: "calib.fft_ms", Unit: "ms", Better: lower},
	{Name: "wire.call_frame_ns", Unit: "ns", Better: lower},
	{Name: "wire.call_frame_allocs", Unit: "count", Better: lower},
	{Name: "wire.f64s_pack_GBps", Unit: "GB/s", Better: higher},
	{Name: "wire.f64s_unpack_GBps", Unit: "GB/s", Better: higher},
	{Name: "bufpool.getput_ns", Unit: "ns", Better: lower},
	{Name: "bufpool.getput_256k_ns", Unit: "ns", Better: lower},
	{Name: "transport.tcp_rtt_us", Unit: "us", Better: lower},
	{Name: "transport.tcp_rtt_allocs", Unit: "count", Better: lower},
	{Name: "transport.inproc_rtt_us", Unit: "us", Better: lower},
	{Name: "transport.tcp_256k_MBps", Unit: "MB/s", Better: higher},
	{Name: "transport.rtt_over_calib", Unit: "ratio", Better: lower},
	{Name: "rmi.call_p50_us", Unit: "us", Better: lower},
	{Name: "rmi.call_overhead_us", Unit: "us", Better: lower},
	{Name: "rmi.call_p99_us", Unit: "us", Better: lower},
	{Name: "rmi.calls_per_s", Unit: "1/s", Better: higher},
	{Name: "rmi.call_allocs", Unit: "count", Better: lower},
	{Name: "rmi.msgs_per_call", Unit: "count", Better: lower},
	{Name: "rmi.bytes_per_call", Unit: "B", Better: lower},
	{Name: "rmi.async_call_us", Unit: "us", Better: lower},
	{Name: "rmi.server_p50_us", Unit: "us", Better: lower},
	{Name: "rmi.concurrent_speedup", Unit: "ratio", Better: higher},
	{Name: "serve.rate_ok_per_s", Unit: "1/s", Better: higher},
	{Name: "serve.session_overhead_us", Unit: "us", Better: lower},
	{Name: "serve.shed_frac_r10k", Unit: "ratio", Better: lower},
	{Name: "serve.shed_frac_r20k", Unit: "ratio", Better: lower},
	{Name: "serve.shed_frac_r30k", Unit: "ratio", Better: lower},
	{Name: "serve.lat_p50_us_r10k", Unit: "us", Better: lower},
	{Name: "serve.lat_p50_us_r20k", Unit: "us", Better: lower},
	{Name: "serve.lat_p50_us_r30k", Unit: "us", Better: lower},
	{Name: "serve.lat_p99_us_r10k", Unit: "us", Better: lower},
	{Name: "serve.lat_p99_us_r20k", Unit: "us", Better: lower},
	{Name: "serve.lat_p99_us_r30k", Unit: "us", Better: lower},
	{Name: "serve.ping_p99_us_r30k", Unit: "us", Better: lower},
	{Name: "serve.gen_late_p99_us", Unit: "us", Better: lower},
	{Name: "serve.inflight_max", Unit: "count", Better: lower},
	{Name: "collection.round_p50_us", Unit: "us", Better: lower},
	{Name: "collection.per_member_us", Unit: "us", Better: lower},
	{Name: "collection.allocs_per_round", Unit: "count", Better: lower},
	{Name: "collection.msgs_per_round", Unit: "count", Better: lower},
	{Name: "collection.barrier_us", Unit: "us", Better: lower},
	{Name: "core.msgs_per_MB_read", Unit: "1/MB", Better: lower},
	{Name: "core.msgs_per_MB_write", Unit: "1/MB", Better: lower},
	{Name: "core.wire_bytes_per_payload_byte_k1", Unit: "ratio", Better: lower},
	{Name: "core.wire_bytes_per_payload_byte_k2", Unit: "ratio", Better: lower},
	{Name: "core.write_MBps", Unit: "MB/s", Better: higher},
	{Name: "core.read_MBps", Unit: "MB/s", Better: higher},
	{Name: "core.write_k2_MBps", Unit: "MB/s", Better: higher},
	{Name: "core.read_k2_MBps", Unit: "MB/s", Better: higher},
	{Name: "core.read_unaligned_MBps", Unit: "MB/s", Better: higher},
	{Name: "core.collective_floor_us", Unit: "us", Better: lower},
	{Name: "core.jacobi_Mcell_per_s", Unit: "Mcell/s", Better: higher},
	{Name: "core.jacobi_sync_Mcell_per_s", Unit: "Mcell/s", Better: higher},
	{Name: "core.jacobi_local_Mcell_per_s", Unit: "Mcell/s", Better: higher},
	{Name: "pagedev.page_read_us", Unit: "us", Better: lower},
	{Name: "pagedev.page_write_us", Unit: "us", Better: lower},
	{Name: "pagedev.sweep_Melem_per_s", Unit: "Melem/s", Better: higher},
	{Name: "pagedev.sweep1dev_Melem_per_s", Unit: "Melem/s", Better: higher},
	{Name: "pagedev.chain_Melem_per_s", Unit: "Melem/s", Better: higher},
	{Name: "pagedev.scale_Melem_per_s", Unit: "Melem/s", Better: higher},
	{Name: "pagedev.axpy_Melem_per_s", Unit: "Melem/s", Better: higher},
	{Name: "pagedev.sum_Melem_per_s", Unit: "Melem/s", Better: higher},
	{Name: "pagedev.dot_Melem_per_s", Unit: "Melem/s", Better: higher},
	{Name: "pagedev.rows_per_s", Unit: "1/s", Better: higher},
	{Name: "pagedev.sweep_computed_GBps", Unit: "GB/s", Better: higher},
	{Name: "pagedev.sweep_pct_of_memcpy", Unit: "%", Better: higher},
	{Name: "pagedev.chain_vs_unfused", Unit: "ratio", Better: lower},
	{Name: "pagedev.jacobi_halo_msgs_per_iter", Unit: "count", Better: lower},
	{Name: "pagedev.jacobi_halo_KB_per_iter", Unit: "KB", Better: lower},
	{Name: "kernel.direct_scale_Melem_per_s", Unit: "Melem/s", Better: higher},
	{Name: "kernel.direct_axpy_Melem_per_s", Unit: "Melem/s", Better: higher},
	{Name: "kernel.direct_sum_Melem_per_s", Unit: "Melem/s", Better: higher},
	{Name: "disk.read_MBps", Unit: "MB/s", Better: higher},
	{Name: "disk.write_MBps", Unit: "MB/s", Better: higher},
	{Name: "disk.ops_per_sweep", Unit: "count", Better: lower},
	{Name: "fft.local_ms", Unit: "ms", Better: lower},
	{Name: "pfft.fft_ms", Unit: "ms", Better: lower},
	{Name: "pfft.speedup_vs_local", Unit: "ratio", Better: higher},
	{Name: "pfft.load_ms", Unit: "ms", Better: lower},
	{Name: "pfft.gather_ms", Unit: "ms", Better: lower},
	{Name: "pfft.msgs_per_transform", Unit: "count", Better: lower},
	{Name: "pfft.MB_per_transform", Unit: "MB", Better: lower},
	{Name: "pfft.w1_ms", Unit: "ms", Better: lower},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: lower},
	{Name: "trace.call_client_self_us", Unit: "us", Better: lower},
	{Name: "trace.call_server_exec_us", Unit: "us", Better: lower},
	{Name: "trace.spans_captured", Unit: "count", Better: higher},
	{Name: "rt.allocs_per_op", Unit: "count", Better: lower},
	{Name: "rt.gc_pause_ms", Unit: "ms", Better: lower},
	{Name: "rt.peak_rss_MB", Unit: "MB", Better: lower},
}

// benchmarkJSON renders the declarations above as the BENCHMARK.json at the
// root of the repository.
func benchmarkJSON(runSeconds int) []byte {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDecl struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []named      `json:"workloads"`
		EndToEnd   []metricDecl `json:"end_to_end"`
		PerLayer   []layerDecl  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds, EndToEnd: endToEnd}
	for _, w := range gatedWorkloads() {
		doc.Workloads = append(doc.Workloads, named{w.name, w.why})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerDecl{d.Name, d.Unit, d.Better})
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(buf, '\n')
}
