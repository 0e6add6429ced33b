package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// epoch is the zero of every span timestamp.
var epoch = time.Now()

// span is one Chrome trace "complete" event: a named interval of one
// trial (tid) in wall-clock microseconds since epoch, with the process
// CPU time it took.
type span struct {
	Name string   `json:"name"`
	Ph   string   `json:"ph"`
	TS   float64  `json:"ts"`
	Dur  float64  `json:"dur"`
	PID  int      `json:"pid"`
	TID  int      `json:"tid"`
	Args spanArgs `json:"args"`
}

type spanArgs struct {
	// CPUus is the process's user and system CPU time, over all threads,
	// during the span. The host metrics use it rather than wall time: on
	// a shared machine, time the process spends descheduled is another
	// tenant's load, not the simulator's cost.
	CPUus float64 `json:"cpu_us"`
	// RefUS, on a run span, is the mean CPU time of the reference loop
	// timed just before and just after it.
	RefUS float64 `json:"ref_us,omitempty"`
}

// cpuNow returns the process's CPU time in microseconds.
func cpuNow() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e3
}

// spanLog keeps a run's spans in memory until they are written out.
type spanLog struct{ spans []span }

// begin opens a span and returns its index for end.
func (l *spanLog) begin(name string, tid int) int {
	l.spans = append(l.spans, span{
		Name: name, Ph: "X", PID: 1, TID: tid,
		TS:   float64(time.Since(epoch).Nanoseconds()) / 1e3,
		Args: spanArgs{CPUus: cpuNow()},
	})
	return len(l.spans) - 1
}

// end closes span i.
func (l *spanLog) end(i int) {
	s := &l.spans[i]
	s.Args.CPUus = cpuNow() - s.Args.CPUus
	s.Dur = float64(time.Since(epoch).Nanoseconds())/1e3 - s.TS
}

// write saves the spans in Chrome trace format.
func (l *spanLog) write(path string) error {
	data, err := json.Marshal(map[string]any{"traceEvents": l.spans, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// trial is one run of a workload, from construction to collection. The
// workload's rig calls setup, run and collect around each call it makes
// into the simulator; the trial turns those spans into host metrics and
// accumulates the simulated outputs.
type trial struct {
	seed  uint64
	scale float64
	id    int
	log   *spanLog
	prof  *profiler // non-nil on the traced trial

	mcycles  uint64 // machine-cycles in run phases
	allocs   uint64 // heap allocations during setup and run phases
	liveHeap uint64 // largest live heap seen at collect

	c      counts             // simulated layer counters
	sim    map[string]float64 // simulated fidelity metrics
	report strings.Builder    // canonical simulated report, hashed into the digest
	checks []checkResult
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// cycles scales a cycle count by -scale, keeping at least one cycle.
func (t *trial) cycles(n float64) uint64 {
	if c := math.Round(n * t.scale); c >= 1 {
		return uint64(c)
	}
	return 1
}

// setup times one construction or warmup step as span "setup.<name>".
func (t *trial) setup(name string, f func()) { t.span("setup."+name, f) }

// run times one measured phase as span "run.<phase>", between two
// timings of the reference loop, and counts the machine-cycles it
// simulates. On the traced trial the phase runs under the CPU profiler.
func (t *trial) run(phase string, machineCycles uint64, f func()) {
	before := t.calibrate()
	if t.prof != nil {
		t.prof.start()
	}
	s := t.span("run."+phase, f)
	if t.prof != nil {
		t.prof.stop(phase)
	}
	t.log.spans[s].Args.RefUS = (before + t.calibrate()) / 2
	t.mcycles += machineCycles
}

// calibrate times the reference loop as span "calibrate" and returns
// its CPU microseconds.
func (t *trial) calibrate() float64 {
	s := t.log.begin("calibrate", t.id)
	reference()
	t.log.end(s)
	return t.log.spans[s].Args.CPUus
}

// span times f, counts the heap allocations it makes, and returns the
// span's index.
func (t *trial) span(name string, f func()) int {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	s := t.log.begin(name, t.id)
	f()
	t.log.end(s)
	runtime.ReadMemStats(&ms)
	t.allocs += ms.Mallocs - before
	return s
}

// collect measures the live heap while the phase's system is still
// reachable, then runs f to read its outputs, all as span "collect".
func (t *trial) collect(f func()) {
	s := t.log.begin("collect", t.id)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > t.liveHeap {
		t.liveHeap = ms.HeapAlloc
	}
	f()
	t.log.end(s)
}

// check records one correctness gate.
func (t *trial) check(name string, ok bool, format string, args ...any) {
	t.checks = append(t.checks, checkResult{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// record appends a line to the canonical simulated report.
func (t *trial) record(format string, args ...any) {
	fmt.Fprintf(&t.report, format+"\n", args...)
}

// digest is the FNV-64a hash of everything the trial simulated: the
// canonical report, the layer counters and the fidelity metrics.
func (t *trial) digest() string {
	h := fnv.New64a()
	h.Write([]byte(t.report.String()))
	fmt.Fprintf(h, "%+v\n", t.c)
	for _, k := range sortedKeys(t.sim) {
		fmt.Fprintf(h, "%s=%v\n", k, t.sim[k])
	}
	return fmt.Sprintf("fnv64a:%016x", h.Sum64())
}

// ok reports whether every check of the trial passed.
func (t *trial) ok() bool {
	for _, c := range t.checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// hostMetrics derives the trial's end-to-end host metrics from its spans
// and allocation counts. Each run span's CPU time is rescaled to the
// reference host by the reference timings around it, and the setup
// spans' by the median of those.
func (t *trial) hostMetrics() map[string]float64 {
	var runS, setupS float64
	var refs []float64
	for _, s := range t.log.spans {
		switch {
		case s.TID != t.id:
		case strings.HasPrefix(s.Name, "run."):
			runS += s.Args.CPUus / s.Args.RefUS * refSeconds
			refs = append(refs, s.Args.RefUS)
		case strings.HasPrefix(s.Name, "setup."):
			setupS += s.Args.CPUus / 1e6
		}
	}
	setupS *= refSeconds * 1e6 / summarize("", refs).Median
	mc := float64(t.mcycles) / 1e6
	return map[string]float64{
		"sim_mcycles_per_s": ratio(mc, runS),
		"setup_s":           setupS,
		"live_heap_mb":      float64(t.liveHeap) / (1 << 20),
		"allocs_per_mcycle": ratio(float64(t.allocs), mc),
	}
}

// ratio divides, reading an empty denominator as a zero result so that
// metrics of layers a workload does not use stay finite.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// summary is a metric's distribution over trials.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Runs   []float64 `json:"runs"`
}

// summarize returns the median and quartiles of runs, with quartiles by
// the same exclusive method as Python's statistics.quantiles(n=4).
func summarize(unit string, runs []float64) summary {
	s := summary{Unit: unit, N: len(runs), Runs: runs}
	if len(runs) == 0 {
		return s
	}
	d := append([]float64(nil), runs...)
	sort.Float64s(d)
	n := len(d)
	if n%2 == 1 {
		s.Median = d[n/2]
	} else {
		s.Median = (d[n/2-1] + d[n/2]) / 2
	}
	if n == 1 {
		s.Q1, s.Q3 = d[0], d[0]
		return s
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	s.Q1, s.Q3 = q(1), q(3)
	return s
}
