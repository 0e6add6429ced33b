package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"firefly/internal/experiments"
)

// specPath is BENCHMARK.json, at the root of the repository.
const specPath = "../BENCHMARK.json"

// tinyScale shrinks every workload enough that all four, traced, run in
// a few seconds while every correctness check still holds.
const tinyScale = 0.02

func TestWorkloadsAtTinyScale(t *testing.T) {
	spec, err := loadBenchSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, w := range workloads {
		res, err := measure(w, options{seed: 1, trials: 1, scale: tinyScale, trace: true, out: dir})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, c := range res.Checks {
			if !c.OK {
				t.Errorf("%s: check %q failed: %s", w.name, c.Name, c.Detail)
			}
		}
		if res.Attempted != 2 || res.Failed != 0 {
			t.Errorf("%s: attempted %d failed %d, want 2 and 0", w.name, res.Attempted, res.Failed)
		}
		want := map[bool]map[string]string{false: {}, true: {}}
		for _, m := range spec.EndToEnd {
			want[false][m.Name] = m.Unit
		}
		for _, m := range spec.PerLayer {
			want[true][m.Name] = m.Unit
		}
		for traced, units := range want {
			got := lineMetrics(t, resultLine(res, traced))
			if len(got) != len(units) {
				t.Errorf("%s: %d metrics emitted with -trace %v, BENCHMARK.json lists %d", w.name, len(got), traced, len(units))
			}
			for name, unit := range units {
				m, ok := got[name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s not emitted", w.name, name)
				case m.Unit != unit:
					t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", w.name, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s = %v", w.name, name, m.Value)
				}
			}
		}
		var sum float64
		for _, r := range res.Layers {
			sum += r.SharePct
		}
		if math.Abs(sum-100) > 1 {
			t.Errorf("%s: layer shares sum to %.2f%%", w.name, sum)
		}
		assertSpans(t, filepath.Join(dir, w.name+".spans.json"))
	}
}

// lineMetrics encodes a result line as the benchmark prints it and
// decodes its metrics back.
func lineMetrics(t *testing.T, line any) map[string]valueUnit {
	t.Helper()
	data, err := json.Marshal(line)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Metrics map[string]valueUnit `json:"metrics"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	return decoded.Metrics
}

// assertSpans checks that a span file is a Chrome trace holding the
// benchmark's phase spans.
func assertSpans(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []span `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	seen := map[string]bool{}
	for _, s := range trace.TraceEvents {
		if s.Ph != "X" || s.Dur < 0 {
			t.Errorf("%s: malformed span %+v", path, s)
		}
		name, _, _ := strings.Cut(s.Name, ".")
		seen[name] = true
	}
	for _, name := range []string{"trial", "setup", "run", "collect"} {
		if !seen[name] {
			t.Errorf("%s: no %s span", path, name)
		}
	}
}

func TestTable1RigMatchesExperiments(t *testing.T) {
	const np, cycles = 4, 50_000
	tr := newTestTrial()
	got := table1Point(tr, np, cycles/5, cycles)
	if want := experiments.SimulateTable1Point(np, cycles); got != want {
		t.Errorf("table1 rig %+v, experiments.SimulateTable1Point %+v", got, want)
	}
}

func TestExerciserRigMatchesExperiments(t *testing.T) {
	const warmup, measure = 20_000, 100_000
	tr := newTestTrial()
	got := exerciserRow(tr, "five", 5, warmup, measure)
	if want := experiments.MeasureExerciser(5, warmup, measure); got != want {
		t.Errorf("exerciser rig %+v, experiments.MeasureExerciser %+v", got, want)
	}
}

func newTestTrial() *trial {
	return &trial{seed: 1, scale: 1, log: &spanLog{}, sim: map[string]float64{}}
}

func TestLedgerAttributesLeafFrames(t *testing.T) {
	samples := []sample{
		{stack: []string{"firefly/internal/mbus.(*Bus).Step", "firefly/internal/machine.(*Machine).Step"}, ns: 3e6},
		{stack: []string{"math.Log", "firefly/internal/traffic.(*Engine).drawGap"}, ns: 1e6},
		{stack: []string{"runtime.mallocgc", "firefly/internal/rpc.(*Node).issue"}, ns: 2e6},
		{stack: []string{"internal/runtime/maps.(*Map).getWithKeySmall", "firefly/internal/rpc.(*Node).Deliver"}, ns: 1e6},
		{stack: []string{"firefly/internal/workload.(*Exerciser).Step"}, ns: 1e6},
		{stack: []string{"slices.Index[go.shape.[]string,go.shape.string]", "firefly/internal/net.(*Segment).Step"}, ns: 1e6},
		{stack: []string{"main.(*trial).span", "main.main"}, ns: 1e6},
	}
	rows, entries := ledger(samples, 1000)
	want := map[string]float64{"mbus": 30, "traffic": 10, "runtime": 40, "topaz": 10, "net": 10}
	var sum float64
	for _, r := range rows {
		sum += r.SharePct
		if math.Abs(r.SharePct-want[r.Layer]) > 1e-9 {
			t.Errorf("%s share %.2f%%, want %.2f%%", r.Layer, r.SharePct, want[r.Layer])
		}
		if r.Layer == "mbus" && r.SelfNS != 3000 {
			t.Errorf("mbus self %.1f ns per cycle, want 3000", r.SelfNS)
		}
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %.6f%%", sum)
	}
	for _, e := range entries {
		if e.Func == "firefly/internal/mbus.(*Bus).Step" && e.CumPct != 30 {
			t.Errorf("Bus.Step cumulative %.1f%%, want 30%%", e.CumPct)
		}
	}
}

func TestBenchmarkJSONNames(t *testing.T) {
	spec, err := loadBenchSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(kind, n, u string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q uses characters outside [A-Za-z0-9_.-]", kind, n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s %s: unit %q", kind, n, u)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for i, w := range spec.Workloads {
		use("workload", w.Name, "")
		if i >= len(workloads) || workloads[i].name != w.Name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark runs them in the order %v", i, w.Name, workloads)
		}
	}
	for _, m := range spec.EndToEnd {
		use("end_to_end", m.Name, m.Unit)
		d, ok := metricByName(m.Name)
		if !ok || d.kind != endToEnd || d.unit != m.Unit || d.higher != (m.Better == "higher") {
			t.Errorf("end_to_end %+v does not match the benchmark's definition %+v", m, d)
		}
	}
	for _, m := range spec.PerLayer {
		use("per_layer", m.Name, m.Unit)
		if d, ok := metricByName(m.Name); !ok || d.kind != layer || d.unit != m.Unit {
			t.Errorf("per_layer %+v does not match the benchmark's definition %+v", m, d)
		}
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize("s", []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Errorf("summary %+v", s)
	}
}

func TestVerdict(t *testing.T) {
	run := func(vals ...float64) summary { return summarize("x", vals) }
	cases := []struct {
		name      string
		higher    bool
		bound     float64
		abs       bool
		base, cur summary
		want      string
	}{
		{"within bound", true, 0.1, false, run(100, 101, 102), run(95, 96, 97), "same"},
		{"worse past bound", true, 0.1, false, run(100, 101, 102), run(80, 81, 82), "worse"},
		{"lower is better", false, 0.1, false, run(100, 101, 102), run(80, 81, 82), "better"},
		{"spread wider than bound", true, 0.01, false, run(90, 100, 110), run(85, 95, 105), "unresolved"},
		{"every run better", true, 0.01, false, run(90, 100, 110), run(120, 130, 140), "better"},
		{"any increase", false, 0, true, run(0, 0, 0), run(0.01, 0.01, 0.01), "worse"},
		{"absolute bound", false, 0.5, true, run(5, 5, 5), run(5.4, 5.4, 5.4), "same"},
	}
	for _, c := range cases {
		if got := verdict(c.higher, c.bound, c.abs, c.base, c.cur); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
