package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricKind says where a metric is reported.
type metricKind int

const (
	// endToEnd metrics are host measurements every workload reports from
	// its untraced trials; BENCHMARK.json lists them with their bounds.
	endToEnd metricKind = iota
	// fidelity metrics are simulated results of one workload, held
	// against the paper or the repository's analytic models.
	fidelity
	// layer metrics describe one layer: host-time shares from the traced
	// trial and simulated counter ratios.
	layer
)

// metricDef describes one metric the benchmark emits.
type metricDef struct {
	name   string
	unit   string
	kind   metricKind
	higher bool // higher is better
	// bound is the regression bound -compare applies to a fidelity
	// metric: a share of the base median, or with abs an amount in the
	// metric's unit. End-to-end bounds come from BENCHMARK.json.
	bound float64
	abs   bool
}

// layers are the simulator's modules, in the order reports list them.
// topaz also counts internal/workload and core counts
// internal/coherence; runtime is the Go garbage collector, scheduler
// and allocator.
var layers = []string{
	"cpu", "core", "mbus", "memory", "trace", "machine", "sim", "topaz",
	"qbus", "net", "rpc", "cluster", "traffic", "stats", "runtime",
}

// metricDefs lists every metric in report order.
var metricDefs = buildMetricDefs()

func buildMetricDefs() []metricDef {
	defs := []metricDef{
		{name: "sim_mcycles_per_s", unit: "Mcycle/s", kind: endToEnd, higher: true},
		{name: "setup_s", unit: "s", kind: endToEnd},
		{name: "live_heap_mb", unit: "MB", kind: endToEnd},
		{name: "allocs_per_mcycle", unit: "1/Mcycle", kind: endToEnd},

		{name: "tp_err_pct", unit: "%", kind: fidelity, bound: 0.5, abs: true},
		{name: "table2_err_pct", unit: "%", kind: fidelity, bound: 0.5, abs: true},
		{name: "p50_ms", unit: "ms", kind: fidelity, bound: 0.05},
		{name: "p99_ms", unit: "ms", kind: fidelity, bound: 0.05},
		{name: "util_err_pct", unit: "%", kind: fidelity, bound: 2, abs: true},
		{name: "goodput_calls_s", unit: "1/s", kind: fidelity, higher: true, bound: 0.02},
		{name: "refused_frac", unit: "fraction", kind: fidelity, bound: 0.01, abs: true},
		{name: "failed_frac", unit: "fraction", kind: fidelity, abs: true},
		{name: "rpc_mbps", unit: "Mbit/s", kind: fidelity, higher: true, bound: 0.02},
	}
	for _, l := range layers {
		defs = append(defs, metricDef{name: l + ".self_pct", unit: "%", kind: layer})
	}
	defs = append(defs, metricDef{name: "trace_overhead_pct", unit: "%", kind: layer})
	for _, d := range []struct{ name, unit string }{
		{"cpu.tpi", "tick/instr"},
		{"cpu.stall_frac", "fraction"},
		{"core.miss_rate", "fraction"},
		{"core.snoop_hit_frac", "fraction"},
		{"core.stall_cycles_per_miss", "cycle/miss"},
		{"mbus.load", "fraction"},
		{"mbus.wait_per_op", "cycle/op"},
		{"mbus.ops_per_kcycle", "op/kcycle"},
		{"topaz.switches_per_kcycle", "1/kcycle"},
		{"topaz.migrations_per_kcycle", "1/kcycle"},
		{"qbus.dma_words_per_kcycle", "word/kcycle"},
		{"qbus.stall_per_word", "cycle/word"},
		{"net.util_max", "fraction"},
		{"net.deferral_frac", "fraction"},
		{"net.collisions_per_frame", "1/frame"},
		{"net.bridge_forwarded", "count"},
		{"rpc.backend_util", "fraction"},
		{"rpc.queue_peak", "count"},
		{"rpc.retransmit_frac", "fraction"},
		{"rpc.dup_calls", "count"},
		{"traffic.sessions", "count"},
		{"traffic.outstanding_peak", "count"},
	} {
		defs = append(defs, metricDef{name: d.name, unit: d.unit, kind: layer})
	}
	return defs
}

// metricByName finds a metric definition.
func metricByName(name string) (metricDef, bool) {
	for _, d := range metricDefs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// benchSpec is BENCHMARK.json, the benchmark's description for tools
// that run it.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadBenchSpec reads and decodes a BENCHMARK.json file.
func loadBenchSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("decode %s: %w", path, err)
	}
	return s, nil
}
