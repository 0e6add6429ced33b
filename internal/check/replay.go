package check

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Replay files serialize a (StressConfig, Schedule) pair as line-oriented
// text, so a shrunk failing schedule survives as an artifact that
// `fireflysim -replay` (or ReadReplay in a test) re-executes exactly.
//
//	firefly-check replay v1
//	protocol mesi
//	cpus 3
//	cachelines 16
//	linewords 4
//	poollines 8
//	seed 42
//	walkevery 16
//	ops 2
//	0 3 291 0
//	2 17 7777 1
//
// Each op line is: cpu addr-index data partial(0|1).
//
// Version 2 adds ordered schedules (model-checker counterexamples from
// internal/verify): an optional `ordered 0|1` header line and a fifth
// per-op field, the reference-kind constraint (0 any, 1 read, 2 write).
// v1 files still read back exactly as before.

// replayMagic is the required first line of a v1 replay file;
// replayMagicV2 the v2 equivalent.
const (
	replayMagic   = "firefly-check replay v1"
	replayMagicV2 = "firefly-check replay v2"
)

// needsV2 reports whether the pair uses v2-only features.
func needsV2(cfg StressConfig, sched Schedule) bool {
	if cfg.Ordered {
		return true
	}
	for _, op := range sched {
		if op.Kind != RefAny {
			return true
		}
	}
	return false
}

// WriteReplay serializes a config and schedule, picking the oldest format
// version that can represent them.
func WriteReplay(w io.Writer, cfg StressConfig, sched Schedule) error {
	cfg = cfg.withDefaults()
	v2 := needsV2(cfg, sched)
	bw := bufio.NewWriter(w)
	if v2 {
		fmt.Fprintln(bw, replayMagicV2)
	} else {
		fmt.Fprintln(bw, replayMagic)
	}
	fmt.Fprintf(bw, "protocol %s\n", cfg.Protocol)
	fmt.Fprintf(bw, "cpus %d\n", cfg.CPUs)
	fmt.Fprintf(bw, "cachelines %d\n", cfg.CacheLines)
	fmt.Fprintf(bw, "linewords %d\n", cfg.LineWords)
	fmt.Fprintf(bw, "poollines %d\n", cfg.PoolLines)
	fmt.Fprintf(bw, "seed %d\n", cfg.Seed)
	fmt.Fprintf(bw, "walkevery %d\n", cfg.WalkEvery)
	if v2 {
		ordered := 0
		if cfg.Ordered {
			ordered = 1
		}
		fmt.Fprintf(bw, "ordered %d\n", ordered)
	}
	fmt.Fprintf(bw, "ops %d\n", len(sched))
	for _, op := range sched {
		p := 0
		if op.Partial {
			p = 1
		}
		if v2 {
			fmt.Fprintf(bw, "%d %d %d %d %d\n", op.CPU, op.AddrIdx, op.Data, p, op.Kind)
		} else {
			fmt.Fprintf(bw, "%d %d %d %d\n", op.CPU, op.AddrIdx, op.Data, p)
		}
	}
	return bw.Flush()
}

// ReadReplay parses a replay file written by WriteReplay. Errors name the
// offending line.
func ReadReplay(r io.Reader) (StressConfig, Schedule, error) {
	var cfg StressConfig
	sc := bufio.NewScanner(r)
	lineNo := 0
	next := func() (string, bool) {
		if !sc.Scan() {
			return "", false
		}
		lineNo++
		return strings.TrimSpace(sc.Text()), true
	}
	fail := func(format string, args ...any) (StressConfig, Schedule, error) {
		return StressConfig{}, nil, fmt.Errorf("replay line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}

	first, ok := next()
	if !ok || (first != replayMagic && first != replayMagicV2) {
		return fail("not a replay file (want %q or %q header)", replayMagic, replayMagicV2)
	}
	v2 := first == replayMagicV2
	nOps := -1
	for nOps < 0 {
		line, ok := next()
		if !ok {
			return fail("truncated header: no ops count")
		}
		key, val, found := strings.Cut(line, " ")
		if !found {
			return fail("malformed header line %q", line)
		}
		n, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil && key != "protocol" {
			return fail("bad %s value %q", key, val)
		}
		if n > math.MaxInt && key != "seed" && key != "walkevery" {
			return fail("%s value %d does not fit in an int", key, n)
		}
		switch key {
		case "protocol":
			cfg.Protocol = strings.TrimSpace(val)
		case "cpus":
			cfg.CPUs = int(n)
		case "cachelines":
			cfg.CacheLines = int(n)
		case "linewords":
			cfg.LineWords = int(n)
		case "poollines":
			cfg.PoolLines = int(n)
		case "seed":
			cfg.Seed = n
		case "walkevery":
			cfg.WalkEvery = n
		case "ordered":
			if !v2 {
				return fail("ordered header requires a v2 file")
			}
			cfg.Ordered = n == 1
		case "ops":
			nOps = int(n)
		default:
			return fail("unknown header key %q", key)
		}
	}
	proto, ok := ProtocolByName(cfg.Protocol)
	if !ok {
		return fail("unknown protocol %q", cfg.Protocol)
	}
	if cfg.CPUs < 1 || cfg.CPUs > 64 {
		return fail("implausible cpu count %d", cfg.CPUs)
	}
	if err := cfg.withDefaults().validate(proto); err != nil {
		return fail("%v", err)
	}
	// The declared count is untrusted: grow the schedule as ops arrive,
	// so an inflated count ends as a truncated file, not an allocation.
	sched := Schedule{}
	for i := 0; i < nOps; i++ {
		line, ok := next()
		if !ok {
			return fail("truncated: %d ops declared, %d found", nOps, i)
		}
		f := strings.Fields(line)
		want := 4
		if v2 {
			want = 5
		}
		if len(f) != want {
			return fail("malformed op %q (want %d fields)", line, want)
		}
		cpu, err1 := strconv.ParseUint(f[0], 10, 8)
		idx, err2 := strconv.ParseUint(f[1], 10, 16)
		data, err3 := strconv.ParseUint(f[2], 10, 32)
		part, err4 := strconv.ParseUint(f[3], 10, 1)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return fail("malformed op %q", line)
		}
		op := Op{
			CPU:     uint8(cpu),
			AddrIdx: uint16(idx),
			Data:    uint32(data),
			Partial: part == 1,
		}
		if v2 {
			kind, err := strconv.ParseUint(f[4], 10, 8)
			if err != nil || kind > uint64(RefWrite) {
				return fail("malformed op kind in %q", line)
			}
			op.Kind = uint8(kind)
		}
		sched = append(sched, op)
	}
	if err := sc.Err(); err != nil {
		return StressConfig{}, nil, fmt.Errorf("replay: %w", err)
	}
	cfg.Ops = len(sched)
	return cfg, sched, nil
}

// SaveReplay writes a replay file to path.
func SaveReplay(path string, cfg StressConfig, sched Schedule) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteReplay(f, cfg, sched); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadReplay reads a replay file from path.
func LoadReplay(path string) (StressConfig, Schedule, error) {
	f, err := os.Open(path)
	if err != nil {
		return StressConfig{}, nil, err
	}
	defer f.Close()
	return ReadReplay(f)
}

// RunReplayFile loads and re-executes a replay file.
func RunReplayFile(path string) (Result, error) {
	cfg, sched, err := LoadReplay(path)
	if err != nil {
		return Result{}, err
	}
	return RunSchedule(cfg, sched)
}
