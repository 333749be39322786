package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"charonsim"
	"charonsim/internal/exec"
	"charonsim/internal/experiments"
)

// runSeconds is how long one run measures by default: one suite pass
// (RunAll over BS, 15-30 s on a 2-core host) fits once, and 70 runs of
// the three workloads stay inside an hour.
const runSeconds = 30

// metricDef names one reported metric. Bound is set only on end-to-end
// metrics: the share of the parent's median by which the metric may get
// worse before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadDef is one benchmark workload as BENCHMARK.json lists it.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"suite", "charonsim.RunAll over BS: one full sweep, where experiments re-replay identical configurations, so reuse can show"},
	{"fig12-six", "fig12 over all six workloads, serially: each workload/platform pair replays once, so reuse finds nothing"},
	{"serve", "in-process charond in a closed loop: cold jobs, overlapping sweeps, thousands of cache hits, a reboot mid-way"},
}

// endToEnd are the metrics a user sees, measured with tracing off.
// Every workload reports every one of them (see README.md for how each
// is defined on each workload).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.2},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "ok_ratio", Unit: "ratio", Better: "higher", Bound: 0.01},
	{Name: "request_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "request_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// cpuShareModules are the packages the traced pass's CPU profile is
// attributed to (flat time); any other package lands in "other", so the
// shares partition the profile.
var cpuShareModules = []string{
	"cpu", "cache", "dram", "hmc", "sim", "charon", "exec", "gc", "heap",
	"workload", "memsys", "experiments", "server", "client", "checkpoint",
	"runtime", "other",
}

// fig12Platforms names the platforms fig12 replays on, as the simulator's
// metric prefixes spell them.
func fig12Platforms() []string {
	var out []string
	for _, k := range experiments.Fig12Kinds {
		out = append(out, platformPrefix(k))
	}
	return out
}

// platformPrefix is the metrics-snapshot prefix of a platform kind.
func platformPrefix(k exec.Kind) string { return strings.ToLower(k.String()) }

// perLayer are the traced pass's metrics. A metric that does not apply
// to a workload (server counters on suite, say) reads 0 there.
func perLayer() []metricDef {
	var ms []metricDef
	add := func(name, unit, better string) {
		ms = append(ms, metricDef{Name: name, Unit: unit, Better: better})
	}
	for _, id := range charonsim.Experiments() {
		add("experiments."+id+"_s", "s", "lower")
	}
	add("experiments.charon_speedup_x", "x", "higher")
	add("experiments.paper_error_pct", "%", "lower")
	for _, k := range exec.Kinds() {
		add("exec.gc_events."+platformPrefix(k), "count", "lower")
	}
	add("gc.record_s", "s", "lower")
	add("gc.recordings", "count", "lower")
	add("gc.events", "count", "lower")
	for _, p := range fig12Platforms() {
		add("exec.replay_s."+p, "s", "lower")
	}
	add("exec.replay_s.minor", "s", "lower")
	add("exec.replay_s.major", "s", "lower")
	add("exec.ns_per_mem_access", "ns", "lower")
	add("cpu.mem_accesses", "count", "lower")
	add("cpu.mshr_stalls", "count", "lower")
	add("cache.accesses", "count", "lower")
	add("cache.miss_ratio", "ratio", "lower")
	add("dram.requests", "count", "lower")
	add("dram.row_hit_ratio", "ratio", "higher")
	add("hmc.vault_bytes", "B", "lower")
	add("hmc.link_bytes", "B", "lower")
	add("hmc.local_ratio", "ratio", "higher")
	add("charon.offloads", "count", "lower")
	add("charon.unit_requests", "count", "lower")
	add("charon.bmcache_hit_ratio", "ratio", "higher")
	add("runtime.alloc_gb", "GB", "lower")
	add("runtime.gc_cycles", "count", "lower")
	for _, m := range cpuShareModules {
		add("cpu_share."+m, "%", "lower")
	}
	add("serve.cold_result_p50_s", "s", "lower")
	add("serve.hit_result_p50_ms", "ms", "lower")
	add("serve.hit_result_p95_ms", "ms", "lower")
	add("serve.sweep_result_p50_s", "s", "lower")
	add("server.submit_cold_ms", "ms", "lower")
	add("server.result_get_ms", "ms", "lower")
	add("server.cache_hit_ratio", "ratio", "higher")
	add("server.dedup_hits", "count", "higher")
	add("server.sweep_child_dedup", "count", "higher")
	add("server.queue_high_water", "count", "lower")
	add("server.reboot_s", "s", "lower")
	add("client.polls_per_job", "count", "lower")
	add("client.retries", "count", "lower")
	add("checkpoint.units_written", "count", "lower")
	add("checkpoint.unit_share", "ratio", "higher")
	add("checkpoint.result_entries", "count", "lower")
	add("checkpoint.journal_entries", "count", "lower")
	add("trace.overhead_pct", "%", "lower")
	return ms
}

// endToEndJSON keeps "bound" on every end-to-end entry, zero or not.
type endToEndJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// writeSpec prints the BENCHMARK.json this program defines; a test pins
// the committed file to it, so the two cannot drift apart.
func writeSpec(w io.Writer) error {
	e2e := make([]endToEndJSON, len(endToEnd))
	for i, m := range endToEnd {
		e2e[i] = endToEndJSON(m)
	}
	spec := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadDef  `json:"workloads"`
		EndToEnd   []endToEndJSON `json:"end_to_end"`
		PerLayer   []metricDef    `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   e2e,
		PerLayer:   perLayer(),
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding spec: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
