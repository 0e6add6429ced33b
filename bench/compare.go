package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compareFiles prints one row per (workload, metric) present in both
// result files: better, same, worse or unresolved, judged by the
// metric's bound. It fails when any row is worse.
func compareFiles(basePath, newPath, specPath string, w io.Writer) error {
	spec, err := loadBenchSpec(specPath)
	if err != nil {
		return err
	}
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	cur, err := readResults(newPath)
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	names := make([]string, 0, len(base))
	for name := range base {
		if _, ok := cur[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-11s %-20s %-9s %14s %14s %9s  %s\n", "workload", "metric", "unit", "base", "new", "change", "verdict")
	worse := 0
	for _, name := range names {
		for _, d := range metricDefs {
			b, okB := base[name].Metrics[d.name]
			c, okC := cur[name].Metrics[d.name]
			if !okB || !okC || d.kind == layer {
				continue
			}
			bound, abs := d.bound, d.abs
			if d.kind == endToEnd {
				var ok bool
				if bound, ok = bounds[d.name]; !ok {
					return fmt.Errorf("%s lists no bound for %s", specPath, d.name)
				}
			}
			v := verdict(d.higher, bound, abs, b, c)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-11s %-20s %-9s %14.6g %14.6g %+8.2f%%  %s\n",
				name, d.name, d.unit, b.Median, c.Median, ratio(c.Median-b.Median, math.Abs(b.Median))*100, v)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than the base", worse)
	}
	return nil
}

// verdict judges one metric. A change within the bound is "same"; past
// it, "better" or "worse". When either side's interquartile spread is
// wider than the bound the comparison cannot tell, so it is
// "unresolved" — unless every new run beats every base run.
func verdict(higher bool, bound float64, abs bool, base, cur summary) string {
	allow := bound
	if !abs {
		allow = bound * math.Abs(base.Median)
	}
	// worse is how much the new median is worse than the base's, in
	// the metric's unit; negative is better.
	worse := cur.Median - base.Median
	if higher {
		worse = -worse
	}
	if len(base.Runs) > 0 && len(cur.Runs) > 0 && worse < 0 && beatsAll(higher, cur.Runs, base.Runs) {
		return "better"
	}
	if math.Max(base.Q3-base.Q1, cur.Q3-cur.Q1) > allow {
		return "unresolved"
	}
	switch {
	case worse > allow:
		return "worse"
	case worse < -allow:
		return "better"
	}
	return "same"
}

// beatsAll reports whether every run in a is better than every run in b.
func beatsAll(higher bool, a, b []float64) bool {
	bestB, worstA := b[0], a[0]
	for _, v := range b {
		if (higher && v > bestB) || (!higher && v < bestB) {
			bestB = v
		}
	}
	for _, v := range a {
		if (higher && v < worstA) || (!higher && v > worstA) {
			worstA = v
		}
	}
	if higher {
		return worstA > bestB
	}
	return worstA < bestB
}

// readResults reads a full run's results.json or one workload's result
// file, keyed by workload.
func readResults(path string) (map[string]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var all resultsFile
	if err := json.Unmarshal(data, &all); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	if len(all.Workloads) > 0 {
		return all.Workloads, nil
	}
	var one result
	if err := json.Unmarshal(data, &one); err != nil || one.Workload == "" {
		return nil, fmt.Errorf("%s holds no benchmark results", path)
	}
	return map[string]*result{one.Workload: &one}, nil
}
