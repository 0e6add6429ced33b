package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
)

// profileHz is the traced trial's CPU sampling rate. pprof.StartCPUProfile
// asks for 100 Hz and, finding the rate already set, prints a warning to
// standard error and keeps 1 kHz; the profile header records the rate
// actually used, so sample weights stay correct.
const profileHz = 1000

// profiler records one CPU profile per run phase of the traced trial,
// saves each for drill-down with `go tool pprof`, and keeps the decoded
// samples for the layer ledger.
type profiler struct {
	dir, workload string
	buf           bytes.Buffer
	samples       []sample
	err           error
}

func (p *profiler) start() {
	if p.err != nil {
		return
	}
	p.buf.Reset()
	runtime.SetCPUProfileRate(profileHz)
	p.err = pprof.StartCPUProfile(&p.buf)
}

func (p *profiler) stop(phase string) {
	if p.err != nil {
		return
	}
	pprof.StopCPUProfile()
	raw := p.buf.Bytes()
	path := filepath.Join(p.dir, fmt.Sprintf("%s.%s.pprof", p.workload, phase))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		p.err = err
		return
	}
	s, err := parseProfile(raw)
	if err != nil {
		p.err = fmt.Errorf("profile of phase %s: %w", phase, err)
		return
	}
	p.samples = append(p.samples, s...)
}

// sample is one profile sample: its stack as function names, leaf first
// (inlined frames innermost first), and its CPU nanoseconds.
type sample struct {
	stack []string
	ns    int64
}

// parseProfile decodes the parts of a gzipped pprof protobuf the ledger
// needs. Field numbers are those of profile.proto.
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		strs      []string
		units     []int64 // sample_type unit string indexes
		rsamples  []rawSample
		locLines  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> name string index
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(num, _ int, v uint64, _ []byte) error {
				if num == 2 {
					units = append(units, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, wire, v, b)
				case 2:
					return appendVarints(&s.values, wire, v, b)
				}
				return nil
			})
			rsamples = append(rsamples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	nsIdx := -1
	for i, u := range units {
		if u >= 0 && int(u) < len(strs) && strs[u] == "nanoseconds" {
			nsIdx = i
		}
	}
	if nsIdx < 0 {
		return nil, errors.New("no nanoseconds sample type")
	}
	name := func(fn uint64) string {
		if i, ok := funcNames[fn]; ok && i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return "?"
	}
	out := make([]sample, 0, len(rsamples))
	for _, rs := range rsamples {
		if nsIdx >= len(rs.values) {
			continue
		}
		s := sample{ns: int64(rs.values[nsIdx])}
		for _, loc := range rs.locs {
			for _, fn := range locLines[loc] {
				s.stack = append(s.stack, name(fn))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// eachField walks one protobuf message, calling f with each field's
// number, wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var (
			v    uint64
			body []byte
		)
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// packageOf returns the import path of a symbolized Go function name.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type parameters may contain slashes and dots
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf maps a package to its layer, or "" for a package that is not
// one (standard library helpers, tracing, the benchmark itself).
func layerOf(pkg string) string {
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/") {
		return "runtime"
	}
	name, ok := strings.CutPrefix(pkg, "firefly/internal/")
	if !ok {
		return ""
	}
	switch name {
	case "workload":
		return "topaz"
	case "coherence":
		return "core"
	}
	if slices.Contains(layers, name) {
		return name
	}
	return ""
}

// layerOfStack attributes a sample to the layer of its leaf frame. A
// leaf outside every layer (math, container/heap, sync/atomic, tracing)
// goes to the nearest caller that is in one; a stack with none at all is
// Go runtime work.
func layerOfStack(stack []string) string {
	for _, fn := range stack {
		if l := layerOf(packageOf(fn)); l != "" {
			return l
		}
	}
	return "runtime"
}

// entryPoints are the layers' public entry points whose cumulative time
// the ledger reports for drill-down.
var entryPoints = []string{
	"firefly/internal/mbus.(*Bus).Step",
	"firefly/internal/core.(*Cache).Step",
	"firefly/internal/cpu.(*Processor).Step",
	"firefly/internal/machine.(*Machine).NextEvent",
	"firefly/internal/machine.(*Machine).SkipCycles",
	"firefly/internal/net.(*Segment).Step",
	"firefly/internal/net.(*Bridge).Step",
	"firefly/internal/rpc.(*Node).Step",
	"firefly/internal/rpc.(*Node).Deliver",
	"firefly/internal/traffic.(*Engine).Step",
	"firefly/internal/cluster.(*Cluster).Run",
}

// layerRow is one line of the ledger: a layer's self time per simulated
// machine-cycle and its share of the profiled CPU time.
type layerRow struct {
	Layer    string  `json:"layer"`
	SelfNS   float64 `json:"self_ns_per_cycle"`
	SharePct float64 `json:"share_pct"`
}

// entryRow is an entry point's cumulative share of the profiled time.
type entryRow struct {
	Func   string  `json:"func"`
	CumPct float64 `json:"cum_pct"`
}

// ledger attributes the samples to layers over mcycles simulated
// machine-cycles and measures the entry points' cumulative shares.
func ledger(samples []sample, mcycles uint64) ([]layerRow, []entryRow) {
	self := map[string]int64{}
	cum := map[string]int64{}
	var total int64
	for _, s := range samples {
		total += s.ns
		self[layerOfStack(s.stack)] += s.ns
		for _, fn := range entryPoints {
			if slices.Contains(s.stack, fn) {
				cum[fn] += s.ns
			}
		}
	}
	rows := make([]layerRow, len(layers))
	for i, l := range layers {
		rows[i] = layerRow{
			Layer:    l,
			SelfNS:   ratio(float64(self[l]), float64(mcycles)),
			SharePct: ratio(float64(self[l]), float64(total)) * 100,
		}
	}
	entries := make([]entryRow, len(entryPoints))
	for i, fn := range entryPoints {
		entries[i] = entryRow{Func: fn, CumPct: ratio(float64(cum[fn]), float64(total)) * 100}
	}
	return rows, entries
}
