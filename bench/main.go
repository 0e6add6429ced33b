// Command bench is the repository's benchmark. It drives four workloads
// through the simulator's public APIs, reports every end-to-end metric
// by name and unit as a median with quartiles over trials, checks that
// the simulated outputs are correct, and attributes host time to the
// simulator's layers from a separate CPU-profiled trial.
//
// From the root of a checkout:
//
//	bash bench/run.sh                          # every workload, 5 trials + 1 traced each
//	bash bench/run.sh -workload traffic -seed 3 -seconds 20 -trace 1
//	bash bench/run.sh -compare base.json new.json
//
// Flags:
//
//	-workload W   run one workload in this process (default: each in a child process)
//	-seed N       workload seed (default 1)
//	-trials K     least number of untraced trials (default 5)
//	-seconds S    keep starting untraced trials until S seconds have passed
//	-scale F      multiply every simulated length by F (default 1)
//	-trace 0|1    1: also run the traced trial and print the per-layer metrics
//	-out DIR      where result, span and profile files go (default bench-out)
//
// With -workload, the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics: the end-to-end
// metrics, or with -trace 1 the per-layer metrics. The command exits
// non-zero when any correctness check fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

type options struct {
	seed    uint64
	trials  int
	seconds float64
	scale   float64
	trace   bool
	out     string
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect reports that the benchmark ran but a correctness check
// failed; the results are printed all the same.
var errIncorrect = errors.New("correctness checks failed")

func run(args []string, stdout io.Writer) error {
	flags := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := flags.String("workload", "", "run one workload in this process")
	seed := flags.Uint64("seed", 1, "workload seed")
	trials := flags.Int("trials", 5, "least number of untraced trials")
	seconds := flags.Float64("seconds", 0, "keep starting untraced trials until this many seconds have passed")
	scale := flags.Float64("scale", 1, "multiply every simulated length by this factor")
	trace := flags.Int("trace", 0, "1: run the traced trial and print the per-layer metrics")
	out := flags.String("out", "bench-out", "directory for result, span and profile files")
	cmp := flags.Bool("compare", false, "compare two result files: -compare base.json new.json")
	if err := flags.Parse(args); err != nil {
		return err
	}
	if *cmp {
		if flags.NArg() != 2 {
			return errors.New("-compare needs two result files")
		}
		return compareFiles(flags.Arg(0), flags.Arg(1), "BENCHMARK.json", stdout)
	}
	if flags.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flags.Args())
	}
	if *trials < 1 || !(*scale > 0) || math.IsInf(*scale, 0) || *seconds < 0 || (*trace != 0 && *trace != 1) {
		return errors.New("need -trials >= 1, -scale > 0, -seconds >= 0 and -trace 0 or 1")
	}
	o := options{seed: *seed, trials: *trials, seconds: *seconds, scale: *scale, trace: *trace == 1, out: *out}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	if *name == "" {
		return runAll(o, stdout)
	}
	w, ok := workloadByName(*name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown workload %q (known: %s)", *name, strings.Join(names, ", "))
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	res, err := measure(w, o)
	if err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(o.out, w.name+".json"), res); err != nil {
		return err
	}
	printResult(stdout, res)
	if err := json.NewEncoder(stdout).Encode(resultLine(res, o.trace)); err != nil {
		return err
	}
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// runAll runs every workload, one at a time, each in its own child
// process with the traced trial, and gathers their result files into
// results.json, the input of -compare.
func runAll(o options, stdout io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	all := resultsFile{Workloads: map[string]*result{}}
	correct := true
	for _, w := range workloads {
		path := filepath.Join(o.out, w.name+".json")
		if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		cmd := exec.Command(exe,
			"-workload", w.name,
			"-seed", strconv.FormatUint(o.seed, 10),
			"-trials", strconv.Itoa(o.trials),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
			"-trace", "1",
			"-out", o.out)
		cmd.Stdout, cmd.Stderr = stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				return fmt.Errorf("workload %s: %w", w.name, err)
			}
			correct = false
		}
		res, err := readResults(path)
		if err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
		all.Workloads[w.name] = res[w.name]
		correct = correct && res[w.name] != nil && res[w.name].Correct
	}
	path := filepath.Join(o.out, "results.json")
	if err := writeJSON(path, all); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "results: %s\n", path)
	if !correct {
		return errIncorrect
	}
	fmt.Fprintln(stdout, "all workloads correct")
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
