package main

import (
	"bytes"
	"encoding/json"
)

// The benchmark's vocabulary: every workload and metric name the program
// can print. BENCHMARK.json at the repository root lists the same names
// with the same units and directions; selftest_test.go fails when the
// two drift apart.

// metricSpec declares one metric.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Exact marks a count that must repeat exactly for one seed (and
	// differ for another): it is taken over a fixed prefix of the
	// workload's input, not over the timed run.
	Exact bool
}

// workloadSpec declares one workload.
type workloadSpec struct {
	Name string
	Why  string
}

var workloadSpecs = []workloadSpec{
	{"corridor-saturate", "closed loop over the two-RSU testbed: every corridor layer works, so a per-record saving must show here"},
	{"corridor-remote-saturate", "same link traffic but the node reaches its broker over TCP: fetches and one round trip per warning, not batched writes"},
	{"corridor-paced-256", "open loop at the Figure 6a point (256 vehicles x 10 Hz): latency is window- and poll-bound, per-record savings must not move it"},
	{"replicated-failover", "closed loop over a 3-replica set at acks=all with leader kills: per-ack follower appends, clamped reads, elections"},
	{"city-40k", "40,000 vehicles on 4 shards x 3 replicas: simulator heap, shard events and router work, corridor layers almost idle"},
}

// End-to-end metrics. Every workload prints every one of them; README.md
// says what each means on each workload and which pairs later issues cite.
//
// Every bound is the widest the contract allows. The issue proposed 0.10,
// but the reference host does not hold still for that: over four passes
// of ten runs each, one metric's interquartile spread read anywhere from
// 2.5% to 12% of its median (25% before the decile estimators), and the
// median itself moved by up to 30% between a quiet and a busy quarter of
// an hour. A bound has to clear what the host does on its own.
var endToEndSpecs = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "records_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_us_per_record", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "warn_latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "warn_latency_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "realtime_factor", Unit: "x", Better: "higher", Bound: 0.25},
}

// Per-layer metrics, printed by the traced run. A metric a workload does
// not exercise reads 0 there.
var perLayerSpecs = []metricSpec{
	// core: codec, detectors, summaries (probes on the workload's records).
	{Name: "core.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "core.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "core.detect_ad3_ns", Unit: "ns", Better: "lower"},
	{Name: "core.detect_cad3_ns", Unit: "ns", Better: "lower"},
	{Name: "core.detect_cad3_noprior_ns", Unit: "ns", Better: "lower"},
	{Name: "core.summary_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "core.summary_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "core.warning_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "mlkit.nb_proba_ns", Unit: "ns", Better: "lower"},
	{Name: "mlkit.tree_proba_ns", Unit: "ns", Better: "lower"},
	// flow and micro-batch.
	{Name: "flow.admit_ns", Unit: "ns", Better: "lower"},
	{Name: "flow.refuse_ns", Unit: "ns", Better: "lower"},
	{Name: "microbatch.step_overhead_ns", Unit: "ns", Better: "lower"},
	// stream: in-process broker, loopback wire, replication, router.
	{Name: "stream.produce_ns", Unit: "ns", Better: "lower"},
	{Name: "stream.produce_batch_ns", Unit: "ns", Better: "lower"},
	{Name: "stream.fetch_ns", Unit: "ns", Better: "lower"},
	{Name: "stream.poll_ns", Unit: "ns", Better: "lower"},
	{Name: "stream.wire_rtt_us", Unit: "us", Better: "lower"},
	{Name: "stream.wire_batch_ns", Unit: "ns", Better: "lower"},
	{Name: "stream.wire_fetch_ns", Unit: "ns", Better: "lower"},
	{Name: "stream.repl_produce_acks0_ns", Unit: "ns", Better: "lower"},
	{Name: "stream.repl_produce_acks1_ns", Unit: "ns", Better: "lower"},
	{Name: "stream.repl_produce_acksall_ns", Unit: "ns", Better: "lower"},
	{Name: "stream.fetch_committed_ns", Unit: "ns", Better: "lower"},
	{Name: "stream.election_us", Unit: "us", Better: "lower"},
	{Name: "stream.revive_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.first_ack_after_kill_us", Unit: "us", Better: "lower"},
	{Name: "stream.router_forward_ns", Unit: "ns", Better: "lower"},
	{Name: "stream.router_flush_ns", Unit: "ns", Better: "lower"},
	{Name: "stream.bytes_in", Unit: "B/record", Better: "lower"},
	{Name: "stream.bytes_out", Unit: "B/record", Better: "lower"},
	{Name: "stream.retries", Unit: "count", Better: "lower"},
	{Name: "stream.elections", Unit: "count", Better: "lower", Exact: true},
	{Name: "stream.backlog_end", Unit: "count", Better: "lower"},
	// rsu: the node as the workload drove it.
	{Name: "rsu.step_ns", Unit: "ns", Better: "lower"},
	{Name: "rsu.step_proc_ns", Unit: "ns", Better: "lower"},
	{Name: "rsu.handover_us", Unit: "us", Better: "lower"},
	{Name: "rsu.records", Unit: "count", Better: "higher", Exact: true},
	{Name: "rsu.warnings", Unit: "count", Better: "higher", Exact: true},
	{Name: "rsu.prior_hits", Unit: "count", Better: "higher"},
	{Name: "rsu.prior_misses", Unit: "count", Better: "lower"},
	{Name: "rsu.summaries_received", Unit: "count", Better: "higher"},
	{Name: "rsu.batch_records_p50", Unit: "count", Better: "higher"},
	// vehicle: the generator side.
	{Name: "vehicle.send_ns", Unit: "ns", Better: "lower"},
	{Name: "vehicle.flush_us", Unit: "us", Better: "lower"},
	{Name: "vehicle.poll_us", Unit: "us", Better: "lower"},
	{Name: "vehicle.late_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "vehicle.late_frac", Unit: "frac", Better: "lower"},
	{Name: "vehicle.warn_latency_p999_ms", Unit: "ms", Better: "lower"},
	{Name: "vehicle.ladder_p50_ms.r20480", Unit: "ms", Better: "lower"},
	{Name: "vehicle.ladder_p99_ms.r20480", Unit: "ms", Better: "lower"},
	{Name: "vehicle.ladder_p50_ms.r81920", Unit: "ms", Better: "lower"},
	{Name: "vehicle.ladder_p99_ms.r81920", Unit: "ms", Better: "lower"},
	// netem, geo, city.
	{Name: "netem.sim_event_ns", Unit: "ns", Better: "lower"},
	{Name: "geo.build_network_s", Unit: "s", Better: "lower"},
	{Name: "city.new_driver_s", Unit: "s", Better: "lower"},
	{Name: "city.start_s", Unit: "s", Better: "lower"},
	{Name: "city.advance_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "city.advance_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "city.events", Unit: "count", Better: "lower", Exact: true},
	{Name: "city.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "city.cpu_us_per_event", Unit: "us", Better: "lower"},
	{Name: "city.telemetry_records", Unit: "count", Better: "higher"},
	{Name: "city.handovers", Unit: "count", Better: "higher"},
	{Name: "city.summaries_forwarded", Unit: "count", Better: "higher"},
	{Name: "city.elections", Unit: "count", Better: "lower"},
	{Name: "city.skew", Unit: "x", Better: "lower"},
	// process, budget, tracing.
	{Name: "proc.alloc_bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "proc.allocs_per_record", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.sys_cpu_frac", Unit: "frac", Better: "lower"},
	{Name: "budget.covered_frac", Unit: "frac", Better: "higher"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
}

// virtualSecondRecords is what one virtual second of traffic means on
// the corridor workloads: the paper's testbed fleet, 256 vehicles at
// 10 Hz. realtime_factor there is records_per_s over this figure.
const virtualSecondRecords = 2560

func knownWorkload(name string) bool {
	for _, w := range workloadSpecs {
		if w.Name == name {
			return true
		}
	}
	return false
}

// benchmarkJSON renders the vocabulary in the layout of BENCHMARK.json.
func benchmarkJSON() []byte {
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
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloadSpecs {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, s := range endToEndSpecs {
		doc.EndToEnd = append(doc.EndToEnd, e2e{s.Name, s.Unit, s.Better, s.Bound})
	}
	for _, s := range perLayerSpecs {
		doc.PerLayer = append(doc.PerLayer, layer{s.Name, s.Unit, s.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		panic(err) // a struct of strings and numbers always encodes
	}
	return buf.Bytes()
}
