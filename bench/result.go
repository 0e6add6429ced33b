package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"
)

// result is one workload's outcome: the distribution of every metric
// over its trials, the correctness checks, and the traced trial's
// layer ledger.
type result struct {
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Scale     float64 `json:"scale"`
	Trials    int     `json:"trials"`
	Traced    bool    `json:"traced"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// RefSeconds is the median CPU time of the reference loop over the
	// untraced trials, for comparison with refSeconds.
	RefSeconds float64 `json:"ref_seconds"`
	// Digest hashes the simulated report; every trial must produce the
	// same one. It is informational: a change to the simulator may move
	// it, a change only to host speed may not.
	Digest      string             `json:"digest"`
	Checks      []checkResult      `json:"checks"`
	Metrics     map[string]summary `json:"metrics"`
	Layers      []layerRow         `json:"layers,omitempty"`
	EntryPoints []entryRow         `json:"entry_points,omitempty"`
}

// measure runs w's untraced trials, then with o.trace the traced one,
// and summarizes them.
func measure(w workload, o options) (*result, error) {
	log := &spanLog{}
	newTrial := func(id int) *trial {
		return &trial{seed: o.seed, scale: o.scale, id: id, log: log, sim: map[string]float64{}}
	}
	runTrial := func(t *trial) {
		runtime.GC() // start each trial from a collected heap
		s := log.begin("trial", t.id)
		w.trial(t)
		log.end(s)
	}
	start := time.Now()
	var trials []*trial
	for len(trials) < o.trials || time.Since(start).Seconds() < o.seconds {
		t := newTrial(len(trials))
		runTrial(t)
		trials = append(trials, t)
	}
	var traced *trial
	if o.trace {
		traced = newTrial(len(trials))
		traced.prof = &profiler{dir: o.out, workload: w.name}
		runTrial(traced)
		if traced.prof.err != nil {
			return nil, fmt.Errorf("traced trial: %w", traced.prof.err)
		}
	}
	if err := log.write(filepath.Join(o.out, w.name+".spans.json")); err != nil {
		return nil, err
	}

	res := &result{
		Workload: w.name, Seed: o.seed, Scale: o.scale, Trials: len(trials), Traced: o.trace,
		Digest: trials[0].digest(), Metrics: map[string]summary{},
	}
	all := trials
	if traced != nil {
		all = append(all[:len(all):len(all)], traced)
	}
	// A check passes when it passes on every trial.
	for i, c := range trials[0].checks {
		for _, t := range all[1:] {
			if i < len(t.checks) && !t.checks[i].OK {
				c.OK, c.Detail = false, fmt.Sprintf("trial %d: %s", t.id, t.checks[i].Detail)
				break
			}
		}
		res.Checks = append(res.Checks, c)
	}
	sameDigest := checkResult{Name: "every trial simulates the same outputs", OK: true, Detail: res.Digest}
	res.Attempted = len(all)
	for _, t := range all {
		d := t.digest()
		if d != res.Digest {
			sameDigest.OK = false
			sameDigest.Detail = fmt.Sprintf("trial %d digest %s, trial 0 %s", t.id, d, res.Digest)
		}
		if !t.ok() || d != res.Digest {
			res.Failed++
		}
	}
	res.Checks = append(res.Checks, sameDigest)
	res.Correct = res.Failed == 0

	var refs []float64
	for _, s := range log.spans {
		if s.Name == "calibrate" && (traced == nil || s.TID != traced.id) {
			refs = append(refs, s.Args.CPUus/1e6)
		}
	}
	res.RefSeconds = summarize("s", refs).Median
	host := make([]map[string]float64, len(trials))
	for i, t := range trials {
		host[i] = t.hostMetrics()
	}
	for _, d := range metricDefs {
		var runs []float64
		for i, t := range trials {
			v, ok := host[i][d.name]
			if d.kind == fidelity {
				v, ok = t.sim[d.name] // absent: another workload's metric
			}
			if ok {
				runs = append(runs, v)
			}
		}
		if len(runs) > 0 {
			res.Metrics[d.name] = summarize(d.unit, runs)
		}
	}
	if traced != nil {
		vals := traced.c.layerMetrics(float64(traced.mcycles) / 1e3)
		res.Layers, res.EntryPoints = ledger(traced.prof.samples, traced.mcycles)
		for _, r := range res.Layers {
			vals[r.Layer+".self_pct"] = r.SharePct
		}
		base := res.Metrics["sim_mcycles_per_s"].Median
		tracedRate := traced.hostMetrics()["sim_mcycles_per_s"]
		vals["trace_overhead_pct"] = (ratio(base, tracedRate) - 1) * 100
		for _, d := range metricDefs {
			if d.kind == layer {
				res.Metrics[d.name] = summarize(d.unit, []float64{vals[d.name]})
			}
		}
	}
	return res, nil
}

// valueUnit is one metric of the result line.
type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the one-line JSON summary: the end-to-end metrics, or
// with traced the per-layer ones.
func resultLine(res *result, traced bool) any {
	want := endToEnd
	if traced {
		want = layer
	}
	metrics := map[string]valueUnit{}
	for _, d := range metricDefs {
		if s, ok := res.Metrics[d.name]; ok && d.kind == want {
			metrics[d.name] = valueUnit{Value: s.Median, Unit: s.Unit}
		}
	}
	return struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics}
}

// printResult writes the human-readable report of one workload.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "== %s (seed %d, scale %g, %d trials", res.Workload, res.Seed, res.Scale, res.Trials)
	if res.Traced {
		fmt.Fprint(w, " + 1 traced")
	}
	fmt.Fprintf(w, "; reference loop %.1f ms, host times scaled to %.0f ms)\n", res.RefSeconds*1e3, refSeconds*1e3)
	fmt.Fprintf(w, "  %-28s %-12s %14s %14s %14s %3s\n", "metric", "unit", "median", "q1", "q3", "n")
	for _, d := range metricDefs {
		s, ok := res.Metrics[d.name]
		if !ok || d.kind == layer {
			continue
		}
		fmt.Fprintf(w, "  %-28s %-12s %14.6g %14.6g %14.6g %3d\n", d.name, s.Unit, s.Median, s.Q1, s.Q3, s.N)
	}
	for _, c := range res.Checks {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(w, "  [%s] %s: %s\n", mark, c.Name, c.Detail)
	}
	if len(res.Layers) > 0 {
		fmt.Fprintf(w, "  layer ledger (traced trial; overhead %.1f%%): self ns per machine-cycle, share\n",
			res.Metrics["trace_overhead_pct"].Median)
		for _, r := range res.Layers {
			fmt.Fprintf(w, "    %-8s %10.3f %6.1f%%\n", r.Layer, r.SelfNS, r.SharePct)
		}
		fmt.Fprintln(w, "  cumulative share through entry points:")
		for _, e := range res.EntryPoints {
			fmt.Fprintf(w, "    %6.1f%%  %s\n", e.CumPct, e.Func)
		}
		fmt.Fprintln(w, "  simulated per-layer metrics:")
		for _, d := range metricDefs {
			if s, ok := res.Metrics[d.name]; ok && d.kind == layer && d.unit != "%" {
				fmt.Fprintf(w, "    %-28s %-12s %14.6g\n", d.name, d.unit, s.Median)
			}
		}
	}
}

// resultsFile gathers every workload's result from a full run.
type resultsFile struct {
	Workloads map[string]*result `json:"workloads"`
}
