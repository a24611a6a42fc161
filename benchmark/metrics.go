package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef declares one metric: what BENCHMARK.json says about it, plus
// (for per-layer metrics) which end-to-end metric it should move where.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: relative worsening that is a regression
	Moves  string  // per-layer only; README's "how they interact" column
}

// exact is the bound of a metric that repeats exactly: any worsening at all
// is a regression.
const exact = 1e-9

// noisy is the bound of the four host-time metrics. ISSUE 11 asked for 0.10
// (0.15 for the tail); the box this was built on does not allow it. Beside
// second-long slow episodes, which the chunk medians absorb, it switches
// between speed regimes 20-30 % apart that last minutes (README,
// "Repeatability"), so ten runs at ten seeds spread by 3-7 % in a quiet
// quarter hour and by 15-28 % across a switch. 0.25 is the widest bound the
// contract allows. A finer claim needs interleaved pairs, not this gate.
const noisy = 0.25

// endToEnd is the contract's end_to_end list, in print order.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: noisy},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: noisy},
	{Name: "op_ms_p90", Unit: "ms", Better: "lower", Bound: noisy},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: noisy},
	{Name: "allocs_per_op", Unit: "1", Better: "lower", Bound: 0.02},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.20},
	{Name: "ok_ratio", Unit: "ratio", Better: "higher", Bound: exact},
	// Simulated time does not depend on the seed (the serve workloads read
	// it from a session at the default seed) and repeats exactly.
	{Name: "sim_msgs_per_op", Unit: "1", Better: "lower", Bound: exact},
	{Name: "sim_flits_per_op", Unit: "1", Better: "lower", Bound: exact},
	{Name: "sim_cycles_per_op", Unit: "cycles", Better: "lower", Bound: exact},
}

// perLayer is the contract's per_layer list. T = traced pass, P = probe of
// public functions in bulk, C = counter the program already exposes. A
// metric whose layer is not on a workload's path reads 0 there.
var perLayer = []metricDef{
	// wprog / core oracle (set-up)
	{Name: "wprog.compile_ms", Unit: "ms", Better: "lower", Moves: "P; setup_s on ocean-chan only"},
	{Name: "core.predict_ms", Unit: "ms", Better: "lower", Moves: "P; setup_s on ocean-chan only"},
	// machine: interpreter, scheduler, shard, run harness
	{Name: "machine.instr_per_op", Unit: "1", Better: "lower", Moves: "C; work per op, must not move under a host-only change"},
	{Name: "machine.memops_per_op", Unit: "1", Better: "lower", Moves: "C; as above"},
	{Name: "machine.local_ops_per_op", Unit: "1", Better: "lower", Moves: "C; as above"},
	{Name: "machine.exec_self_ns_per_instr", Unit: "ns", Better: "lower", Moves: "T; op_ms_p50, cpu_ms_per_op on ocean-chan, slightly everywhere"},
	{Name: "machine.alu_ns_per_instr", Unit: "ns", Better: "lower", Moves: "P (isa/interp rung); op_ms_p50 on ocean-chan"},
	{Name: "machine.local_memop_ns", Unit: "ns", Better: "lower", Moves: "P; op_ms_p50 on ocean-chan"},
	{Name: "machine.shard_calls_per_op", Unit: "1", Better: "lower", Moves: "T; count behind shard_ns_per_memop"},
	{Name: "machine.shard_ns_per_memop", Unit: "ns", Better: "lower", Moves: "T; op_ms_p50 on ocean-chan, allocs on serve-chan, small on hop-*"},
	{Name: "machine.new_ms", Unit: "ms", Better: "lower", Moves: "T; op_ms_p50 on ocean-chan (64 cores, 195 pages)"},
	{Name: "machine.collect_ms", Unit: "ms", Better: "lower", Moves: "T; op_ms_p50 on ocean-chan"},
	{Name: "machine.sc_check_us_per_job", Unit: "us", Better: "lower", Moves: "P; ops_per_s on serve-*"},
	{Name: "machine.cluster_null_run_ms", Unit: "ms", Better: "lower", Moves: "P; op_ms_p50 on hop-tcp, setup_s on serve-tcp, nothing on *-chan"},
	{Name: "machine.g2_ratio", Unit: "ratio", Better: "lower", Moves: "diagnostic: op p50 at GOMAXPROCS=2 over 1"},
	// placement
	{Name: "placement.calls_per_op", Unit: "1", Better: "lower", Moves: "T; count behind touch_ns"},
	{Name: "placement.touch_ns", Unit: "ns", Better: "lower", Moves: "T; op_ms_p50 on ocean-chan"},
	// core: schemes and lease cache
	{Name: "core.decide_calls_per_op", Unit: "1", Better: "lower", Moves: "T; count behind decide_ns"},
	{Name: "core.decide_ns", Unit: "ns", Better: "lower", Moves: "T; op_ms_p50 on hop-chan/hop-tcp, not lease-chan"},
	{Name: "core.observe_ns", Unit: "ns", Better: "lower", Moves: "T; as decide_ns"},
	{Name: "core.sched_codec_ns", Unit: "ns", Better: "lower", Moves: "T (AppendState+SetState per migration); op_ms_p50, alloc_kb_per_op on hop-chan/hop-tcp"},
	{Name: "core.sched_state_bytes", Unit: "B", Better: "lower", Moves: "C; alloc_kb_per_op on hop-chan/hop-tcp"},
	{Name: "core.lease_lookup_ns", Unit: "ns", Better: "lower", Moves: "P; op_ms_p50 on lease-chan; hop-chan must not move"},
	{Name: "core.lease_fill_ns", Unit: "ns", Better: "lower", Moves: "P; as lease_lookup_ns"},
	{Name: "core.lease_update_ns", Unit: "ns", Better: "lower", Moves: "P; as lease_lookup_ns"},
	{Name: "core.lease_hit_ratio", Unit: "ratio", Better: "higher", Moves: "C (hits / (hits+misses)); op_ms_p50 on lease-chan"},
	{Name: "core.lease_updates_per_op", Unit: "1", Better: "lower", Moves: "T (SendLeaseInval calls); op_ms_p50, allocs_per_op on lease-chan"},
	// transport: Local, codec, frames, TCP node
	{Name: "transport.migrations_per_op", Unit: "1", Better: "lower", Moves: "C; work per op"},
	{Name: "transport.remote_ops_per_op", Unit: "1", Better: "lower", Moves: "C; work per op"},
	{Name: "transport.evictions_per_op", Unit: "1", Better: "lower", Moves: "C; 0 by construction (no guest limits)"},
	{Name: "transport.local_send_ns", Unit: "ns", Better: "lower", Moves: "T; op_ms_p50, allocs_per_op on hop-chan, not ocean-chan"},
	{Name: "transport.local_remote_ns", Unit: "ns", Better: "lower", Moves: "T (Local.Remote minus the shard); op_ms_p50 on ocean-chan, hop-chan"},
	{Name: "transport.flush_calls_per_op", Unit: "1", Better: "lower", Moves: "T; count behind flush_ns"},
	{Name: "transport.flush_ns", Unit: "ns", Better: "lower", Moves: "T; op_ms_p50 on hop-chan"},
	{Name: "transport.codec_encode_ns", Unit: "ns", Better: "lower", Moves: "P; op_ms_p50, cpu_ms_per_op on hop-tcp; hop-chan must not move"},
	{Name: "transport.codec_decode_ns", Unit: "ns", Better: "lower", Moves: "P; as codec_encode_ns"},
	{Name: "transport.frame_encode_ns_per_msg", Unit: "ns", Better: "lower", Moves: "P; as codec_encode_ns"},
	{Name: "transport.frame_decode_ns_per_msg", Unit: "ns", Better: "lower", Moves: "P; as codec_encode_ns"},
	{Name: "transport.tcp_hop_us", Unit: "us", Better: "lower", Moves: "P; op_ms_p50 on hop-tcp"},
	{Name: "transport.tcp_rtt_us", Unit: "us", Better: "lower", Moves: "P; op_ms_p50 on hop-tcp and serve-tcp"},
	{Name: "transport.tcp_msg_us", Unit: "us", Better: "lower", Moves: "P (per message with 16 in flight, one flush each); the ladder's unit cost for hop-tcp"},
	{Name: "transport.tcp_msgs_per_op", Unit: "1", Better: "lower", Moves: "C (NodeNet); op_ms_p50 on hop-tcp"},
	{Name: "transport.tcp_batches_per_op", Unit: "1", Better: "lower", Moves: "C (write syscalls); op_ms_p50, cpu_ms_per_op on hop-tcp"},
	{Name: "transport.tcp_bytes_per_op", Unit: "B", Better: "lower", Moves: "C; cpu_ms_per_op on hop-tcp"},
	{Name: "transport.tcp_msgs_per_batch", Unit: "ratio", Better: "higher", Moves: "C (coalescing: useful / writes); op_ms_p50 on hop-tcp"},
	{Name: "transport.coord_msgs_per_op", Unit: "1", Better: "lower", Moves: "C (CoordNet); op_ms_p50 on hop-tcp"},
	{Name: "transport.coord_batches_per_op", Unit: "1", Better: "lower", Moves: "C; as coord_msgs_per_op"},
	{Name: "transport.manifest_ms", Unit: "ms", Better: "lower", Moves: "P; op_ms_p50 on hop-tcp"},
	// serve
	{Name: "serve.bringup_ms", Unit: "ms", Better: "lower", Moves: "T; setup_s on serve-*"},
	{Name: "serve.drain_ms", Unit: "ms", Better: "lower", Moves: "T; ops_per_s on serve-* (once per session)"},
	{Name: "serve.runjob_us_p50", Unit: "us", Better: "lower", Moves: "T; op_ms_p50 on serve-*"},
	{Name: "serve.runjob_us_p99", Unit: "us", Better: "lower", Moves: "T; op_ms_p90 on serve-tcp"},
	{Name: "serve.retire_us_p50", Unit: "us", Better: "lower", Moves: "T; op_ms_p50 on serve-*"},
	{Name: "serve.retire_us_p99", Unit: "us", Better: "lower", Moves: "T; op_ms_p90 on serve-tcp"},
	{Name: "serve.job_us_p99", Unit: "us", Better: "lower", Moves: "T; op_ms_p90 on serve-*"},
	{Name: "serve.self_us_per_job", Unit: "us", Better: "lower", Moves: "T (Run wall minus backend calls); ops_per_s, allocs_per_op on serve-chan"},
	{Name: "serve.build_us_per_job", Unit: "us", Better: "lower", Moves: "P (Rebase); ops_per_s on serve-chan"},
	{Name: "serve.instr_per_job", Unit: "1", Better: "lower", Moves: "C; work per job"},
	{Name: "serve.msgs_per_job", Unit: "1", Better: "lower", Moves: "C; work per job"},
	{Name: "serve.rejected_per_kjob", Unit: "1", Better: "lower", Moves: "C; ok_ratio on serve-*"},
	{Name: "serve.sim_lat_cycles_p50", Unit: "cycles", Better: "lower", Moves: "C; simulated, must not move under a host-only change"},
	{Name: "serve.sim_lat_cycles_p99", Unit: "cycles", Better: "lower", Moves: "C; as above"},
	{Name: "serve.wire_msgs_per_job", Unit: "1", Better: "lower", Moves: "C (every endpoint's sent frames / jobs); op_ms_p50 on serve-tcp"},
	// telemetry
	{Name: "telemetry.samples_per_kjob", Unit: "1", Better: "lower", Moves: "T; count behind sample_us"},
	{Name: "telemetry.bytes_per_sample", Unit: "B", Better: "lower", Moves: "T; sink_write_ns"},
	{Name: "telemetry.sink_write_ns", Unit: "ns", Better: "lower", Moves: "T; ops_per_s on serve-*"},
	{Name: "telemetry.sample_us", Unit: "us", Better: "lower", Moves: "T (Backend.Sample); ops_per_s on serve-*, a round trip per node on serve-tcp"},
	{Name: "telemetry.encode_us_per_sample", Unit: "us", Better: "lower", Moves: "P (AppendSamplePoints); ops_per_s on serve-*"},
	// the ladder itself
	{Name: "ladder.explained_ratio", Unit: "ratio", Better: "higher", Moves: "sum of count x unit cost over op_ms_p50"},
	{Name: "ladder.residual_ratio", Unit: "ratio", Better: "lower", Moves: "1 - explained: scheduler, channels, context allocation"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Moves: "traced op p50 / untraced - 1"},
	{Name: "trace.clock_ns", Unit: "ns", Better: "lower", Moves: "what one timed span records for an empty body; already subtracted from every T figure"},
}

// values is one run's measurements by metric name.
type values map[string]float64

type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last-line JSON object.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]reported `json:"metrics"`
}

// report pairs every metric in defs with its measured value; a missing
// value is a bug in the benchmark, not a zero.
func report(defs []metricDef, v values) (map[string]reported, error) {
	out := make(map[string]reported, len(defs))
	for _, d := range defs {
		x, ok := v[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = reported{Value: x, Unit: d.Unit}
	}
	if len(v) != len(defs) {
		var extra []string
		for k := range v {
			if _, ok := out[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("undeclared metrics measured: %v", extra)
	}
	return out, nil
}

func printTable(w io.Writer, defs []metricDef, m map[string]reported) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", d.Name, m[d.Name].Value, d.Unit)
	}
}

// writeSpec prints BENCHMARK.json from the tables above, so the file and
// the program cannot name different metrics.
func writeSpec(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, d := range workloads {
		spec.Workloads = append(spec.Workloads, wl{d.name, d.why})
	}
	for _, d := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spec)
}
