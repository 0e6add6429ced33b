// Command fireflysim runs one Firefly configuration under a chosen
// workload and prints the measurement report. Sweeps over many
// configurations are cmd/tables -experiment.
//
// The first of -verify, -replay, -traffic and -cluster that is set picks
// the mode; with none set, one machine runs. Every mode checks -seconds
// and -warmup, and otherwise reads only the flags listed with it in the
// table modes; setting any other flag is bad input.
//
// Exit status 2 means bad input; 1 means a finding (a coherence
// violation, an unsafe -verify, a replay that trips the oracle) or an
// I/O failure.
//
// Examples:
//
//	fireflysim -cpus 7 -protocol mesi -miss 0.15 -share 0.3
//	fireflysim -cpus 4 -faults "all=1e-4" -check -seconds 0.005
//	fireflysim -verify bad-stale-sharer -verify-out ce.replay
//	fireflysim -cluster 64 -segments 8 -workers 4 -callers 1 -seconds 0.01
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"

	"firefly"
	"firefly/internal/check"
	"firefly/internal/cluster"
	"firefly/internal/fault"
	"firefly/internal/machine"
	"firefly/internal/mbus"
	"firefly/internal/obs"
	"firefly/internal/rpc"
	"firefly/internal/sim"
	"firefly/internal/topaz"
	"firefly/internal/trace"
	"firefly/internal/traffic"
	"firefly/internal/verify"
	"firefly/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// badInput marks an error caused by the command line or an input file;
// run maps it to exit status 2. Every other error exits 1.
type badInput struct{ error }

func badf(format string, a ...any) error { return badInput{fmt.Errorf(format, a...)} }

// options holds the parsed flags.
type options struct {
	cpus, lineWords, cacheLines, clusterN, callers, segments, workers int
	variant, protocol, workload, arb, sched, tracePath, traceFormat   string
	faults, replay, verify, verifyOut, traffic                        string
	seconds, warmup, miss, share                                      float64
	seed, travel                                                      uint64
	check                                                             bool
}

// modes is the table of modes, in the order that picks one: the first
// whose flag is set to other than its default runs, else one machine.
// Each lists the flags it reads besides -seconds and -warmup.
var modes = []struct{ name, reads string }{
	{"-verify", "-verify-out"},
	{"-replay", ""},
	{"-traffic", "-cluster -segments -workers -seed -faults"},
	{"-cluster", "-segments -workers -callers -seed -faults"},
	{"one-machine", "-cpus -variant -protocol -arb -sched -linewords -cachelines -seed -faults " +
		"-workload -miss -share -check -trace -trace-format -travel"},
}

// pickMode returns the name of the mode the parsed flags select, or bad
// input naming a flag set on the command line that the mode does not read.
func pickMode(fs *flag.FlagSet) (string, error) {
	md := modes[len(modes)-1]
	for _, m := range modes {
		if f := fs.Lookup(strings.TrimPrefix(m.name, "-")); f != nil && f.Value.String() != f.DefValue {
			md = m
			break
		}
	}
	reads := strings.Fields(md.name + " " + md.reads + " -seconds -warmup")
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && !slices.Contains(reads, "-"+f.Name) {
			err = badf("-%s is not read in %s mode", f.Name, md.name)
		}
	})
	return md.name, err
}

// run executes one invocation, writing the report to stdout and any
// error to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("fireflysim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&o.cpus, "cpus", 5, "number of processors (hardware shipped 1-7)")
	fs.StringVar(&o.variant, "variant", "microvax", "processor variant: microvax or cvax")
	fs.StringVar(&o.protocol, "protocol", "firefly", "coherence protocol: firefly, dragon, berkeley, mesi, write-through-invalidate")
	fs.Float64Var(&o.seconds, "seconds", 0.02, "simulated seconds to run")
	fs.Float64Var(&o.warmup, "warmup", 0.002, "simulated seconds of warmup excluded from measurement")
	fs.Float64Var(&o.miss, "miss", 0.2, "synthetic workload miss rate M")
	fs.Float64Var(&o.share, "share", 0.1, "synthetic workload sharing fraction S")
	fs.StringVar(&o.workload, "workload", "synthetic", "workload: synthetic, exerciser, make, pipeline, compiler")
	fs.IntVar(&o.lineWords, "linewords", 1, "cache line size in longwords (hardware: 1)")
	fs.IntVar(&o.cacheLines, "cachelines", 0, "cache lines (0 = variant default)")
	fs.Uint64Var(&o.seed, "seed", 1, "random seed")
	fs.StringVar(&o.tracePath, "trace", "", "write an event trace to this file")
	fs.StringVar(&o.traceFormat, "trace-format", "jsonl", "trace format: jsonl or chrome")
	fs.StringVar(&o.arb, "arb", "fixed", "MBus arbitration policy: fixed, rr, fcfs")
	fs.StringVar(&o.sched, "sched", "", "kernel dispatch policy: averse, oldest, steal (default: workload's own)")
	fs.IntVar(&o.workers, "workers", 0, "goroutines stepping cluster members in -cluster and -traffic mode (0 = one per CPU; output is identical for any value)")
	fs.BoolVar(&o.check, "check", false, "run the coherence checker alongside the workload (oracle + invariant walks)")
	fs.StringVar(&o.faults, "faults", "", `fault-injection spec, e.g. "bus=1e-4,mem=1e-4" or "all=1e-4" (keys: bus, timeout, mem, memunc, nxm, stall, tag, drop, all, retries, backoff, stallcycles, hold, start, end, seed, addrmin, addrmax)`)
	fs.StringVar(&o.replay, "replay", "", "re-execute a coherence-checker replay file and report the outcome")
	fs.StringVar(&o.verify, "verify", "", `exhaustively verify a protocol's coherence invariants in the abstract counter model ("all" = the whole shipped suite); exits 1 on a counterexample`)
	fs.StringVar(&o.verifyOut, "verify-out", "", "with -verify: write the concretized counterexample as a replay file (runnable with -replay)")
	fs.IntVar(&o.clusterN, "cluster", 0, "run an N-machine cluster on a shared Ethernet instead of one machine (node 0 serves, the rest call)")
	fs.IntVar(&o.callers, "callers", 3, "caller threads per client machine in -cluster mode")
	fs.IntVar(&o.segments, "segments", 1, "Ethernet segments in -cluster mode, joined store-and-forward by a bridge (machines split in contiguous blocks)")
	fs.Uint64Var(&o.travel, "travel", 0, "time-travel: after the run, rebuild the machine, replay it to this cycle, and print the report there (synthetic workload only; 0 = off)")
	fs.StringVar(&o.traffic, "traffic", "", `fleet traffic spec, e.g. "rate=2000,mix=file:6/make:3/mdc:1,lb=least,queue=32,seed=5": member 0 load-balances an open-loop user population over the rest (defaults to a 16-machine 4-segment fleet unless -cluster/-segments are set)`)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	mode, err := pickMode(fs)
	if err == nil {
		err = o.execute(stdout, mode)
	}
	if err == nil {
		return 0
	}
	fmt.Fprintf(stderr, "fireflysim: %v\n", err)
	if errors.As(err, new(badInput)) {
		return 2
	}
	return 1
}

// execute runs the named mode.
func (o *options) execute(w io.Writer, mode string) error {
	// A negative or NaN duration would wrap to an effectively endless
	// cycle count, and so would one whose cycles, warmup included, reach
	// 2^63: the float-to-integer conversion is then undefined, and the
	// run's end cycle could wrap.
	cycles := 0.0
	for _, d := range []struct {
		flag string
		s    float64
	}{{"seconds", o.seconds}, {"warmup", o.warmup}} {
		if d.s < 0 || math.IsNaN(d.s) || math.IsInf(d.s, 0) {
			return badf("-%s must be a finite non-negative number of seconds, got %v", d.flag, d.s)
		}
		cycles += math.Round(d.s * 1e9 / sim.CycleNS)
	}
	if cycles >= 1<<63 {
		return badf("-seconds plus -warmup is %g cycles, at or beyond the simulator's 2^63-cycle range", cycles)
	}
	if o.workers < 0 {
		return badf("-workers %d: need 0 (one per CPU) or more", o.workers)
	}
	switch mode {
	case "-verify":
		return runVerify(w, o.verify, o.verifyOut)
	case "-replay":
		return runReplay(w, o.replay)
	}

	var faults *fault.Config
	if o.faults != "" {
		fcfg, err := fault.ParseSpec(o.faults)
		if err != nil {
			return badInput{err}
		}
		faults = &fcfg
	}
	if mode != "one-machine" {
		return o.runFleet(w, faults)
	}
	return o.runMachine(w, faults)
}

// runVerify exhaustively checks one protocol (or the whole shipped suite)
// in the abstract counter model, printing per-space results; a
// counterexample is a finding. When out is non-empty the smallest
// counterexample is concretized into a replay file runnable with -replay.
func runVerify(w io.Writer, name, out string) error {
	names := []string{name}
	if name == "all" {
		names = verify.ShippedProtocolNames()
	}
	var finding error
	for _, n := range names {
		r, err := verify.ForProtocol(n)
		if err != nil {
			return badInput{err}
		}
		for _, sp := range append(append([]*verify.Space{}, r.Exact...), r.Symbolic) {
			kLabel := fmt.Sprintf("k=%d", sp.K)
			if sp.K == 0 {
				kLabel = "k=ω"
			}
			verdict := "safe"
			if sp.Counterexample != nil {
				verdict = "UNSAFE (" + sp.Counterexample.Kind + ")"
			}
			fmt.Fprintf(w, "verify %s %s: %d states, %d transitions, diameter %d: %s\n",
				n, kLabel, sp.States, sp.Transitions, sp.Diameter, verdict)
		}
		ce := r.Counterexample()
		if ce == nil {
			fmt.Fprintf(w, "verify %s: SAFE — all invariants hold in every reachable configuration\n", n)
			continue
		}
		finding = errors.New("verify: counterexample found")
		fmt.Fprintf(w, "verify %s: %s\n", n, ce)
		if out != "" {
			cfg, sched, err := verify.Concretize(r.Model, ce)
			if err != nil {
				return fmt.Errorf("concretize: %w", err)
			}
			if err := check.SaveReplay(out, cfg, sched); err != nil {
				return err
			}
			fmt.Fprintf(w, "verify %s: counterexample schedule written to %s (run with -replay)\n", n, out)
		}
	}
	return finding
}

// runReplay re-executes a replay file; a violation is a finding.
func runReplay(w io.Writer, path string) error {
	res, err := check.RunReplayFile(path)
	if err != nil {
		return badInput{err}
	}
	fmt.Fprintf(w, "replay: %d checked ops, %d walks, %d cycles\n", res.Checked, res.Walks, res.Cycles)
	return checkVerdict(w, "replay", "coherent (no violations)", res.Violations, 0)
}

// checkVerdict prints a coherence checker's outcome under label: pass when
// it saw no violations, otherwise each violation, and then the finding.
func checkVerdict(w io.Writer, label, pass string, vs []check.Violation, dropped uint64) error {
	if len(vs) == 0 {
		fmt.Fprintf(w, "%s: %s\n", label, pass)
		return nil
	}
	for _, v := range vs {
		fmt.Fprintf(w, "%s: VIOLATION %v\n", label, v)
	}
	if dropped > 0 {
		fmt.Fprintf(w, "%s: %d further violations not shown\n", label, dropped)
	}
	return fmt.Errorf("%s: %d violations", label, uint64(len(vs))+dropped)
}

// runFleet drives Fireflies on bridged Ethernet segments; the report is
// byte-identical at any -workers value. With -traffic, member 0
// load-balances open-loop users over the rest (16 machines on 4 segments
// unless -cluster or -segments say otherwise); with -cluster alone, node
// 0 serves RPCs and every other node aims -callers threads at it.
func (o *options) runFleet(w io.Writer, faults *fault.Config) error {
	n, segments := o.clusterN, o.segments
	cfg := cluster.Config{Machines: n, Segments: segments, Seed: o.seed}
	var ts traffic.Spec
	if o.traffic != "" {
		var err error
		if ts, err = traffic.ParseSpec(o.traffic); err != nil {
			return badInput{err}
		}
		if n == 0 {
			n = 16
			if segments == 1 {
				segments = 4
			}
		}
		cfg = ts.ClusterConfig(n, segments, o.seed)
	} else if o.callers < 1 {
		return badf("-callers %d: need at least 1 caller thread", o.callers)
	}
	if o.workers == 0 {
		o.workers = cluster.DefaultWorkers()
	}
	cfg.Workers = o.workers
	cfg.Faults = faults
	if err := cfg.Validate(); err != nil {
		return badInput{err}
	}
	cl := cluster.New(cfg)

	if o.traffic != "" {
		eng := traffic.Attach(cl, ts)
		cl.RunSeconds(o.seconds)
		fmt.Fprintf(w, "traffic: %d machines on %d segment(s), %d workers, %.3f simulated seconds\n",
			n, segments, o.workers, o.seconds)
		pred := ts.Predict(rpc.Config{}, n-1)
		fmt.Fprintf(w, "analytic: %.0f calls/s offered, per-node rho %.2f, knee %.0f sessions/s\n",
			pred.CallsPerSecond, pred.Rho, pred.KneeSessionsPerSecond)
		fmt.Fprint(w, eng.Report())
		return nil
	}

	if err := cl.Node(0).StartServer(); err != nil {
		return badInput{err}
	}
	for i := 1; i < n; i++ {
		if err := cl.Node(i).StartCallers(o.callers, 0, 0); err != nil {
			return badInput{err}
		}
	}
	cl.RunSeconds(o.seconds)
	fmt.Fprintf(w, "cluster: %d machines on %d segment(s), %d caller threads each, %d workers, %.3f simulated seconds\n",
		n, segments, o.callers, o.workers, o.seconds)
	var payload uint64
	var clients []*rpc.Node
	for i := 1; i < n; i++ {
		clients = append(clients, cl.Node(i))
		st := cl.Node(i).Stats()
		payload += st.BytesMoved.Value()
		fmt.Fprintf(w, "node %d: %d calls completed (%d issued, %d retransmits, %d failed), mean latency %.0f µs\n",
			i, st.CallsCompleted.Value(), st.CallsIssued.Value(),
			st.Retransmits.Value(), st.CallsFailed.Value(), cl.Node(i).MeanLatencyUS())
	}
	srv := cl.Node(0).Stats()
	fmt.Fprintf(w, "node 0 (server): %d calls served, %d duplicates absorbed\n",
		srv.Served.Value(), srv.DupCalls.Value())
	if h := rpc.MergeLatencies(clients...); h.Count() > 0 {
		fmt.Fprintf(w, "fleet latency: p50 %.0f µs, p95 %.0f µs, p99 %.0f µs over %d calls\n",
			rpc.CyclesToUS(h.Percentile(0.50)), rpc.CyclesToUS(h.Percentile(0.95)),
			rpc.CyclesToUS(h.Percentile(0.99)), h.Count())
	}
	fmt.Fprintf(w, "payload: %.2f Mbit/s across the fleet\n", float64(payload)*8/o.seconds/1e6)
	for k := 0; k < cl.NumSegments(); k++ {
		seg := cl.SegmentAt(k).Stats()
		fmt.Fprintf(w, "wire %d: utilization %.2f, %d frames (%d collisions, %d deferrals, %d dropped)\n",
			k, cl.SegmentAt(k).Utilization(),
			seg.Frames.Value(), seg.Collisions.Value(), seg.Deferrals.Value(),
			seg.Dropped.Value())
	}
	if br := cl.Bridge(); br != nil {
		fmt.Fprintf(w, "bridge: %d frames forwarded, %d unroutable\n",
			br.Stats().Forwarded.Value(), br.Stats().Unroutable.Value())
	}
	if plan := cl.NetFaults(); plan != nil {
		fmt.Fprintf(w, "faults: %d frames dropped by the plan\n", plan.Stats().NetDrops.Value())
	}
	return nil
}

// runMachine runs one Firefly under the chosen workload and prints its
// report, then the -travel replay, the fault summary and the -check
// verdict. -travel K rebuilds the machine from the same Config and runs
// it to cycle K; runs are deterministic, so that is the state the first
// run passed through at K.
func (o *options) runMachine(w io.Writer, faults *fault.Config) (err error) {
	var cfg machine.Config
	switch o.variant {
	case "microvax":
		cfg = machine.MicroVAXConfig(o.cpus)
	case "cvax":
		cfg = machine.CVAXConfig(o.cpus)
	default:
		return badf("unknown variant %q", o.variant)
	}
	var ok bool
	if cfg.Protocol, ok = firefly.ProtocolByName(o.protocol); !ok {
		return badf("unknown protocol %q (known: %s)",
			o.protocol, strings.Join(firefly.ProtocolNames(), ", "))
	}
	if cfg.Arbiter, ok = mbus.NewArbiterByName(o.arb); !ok {
		return badf("unknown arbitration policy %q (known: %s)",
			o.arb, strings.Join(mbus.ArbiterNames(), ", "))
	}
	var dispatch topaz.DispatchPolicy
	if o.sched != "" {
		if dispatch, ok = topaz.PolicyByName(o.sched); !ok {
			return badf("unknown dispatch policy %q (known: %s)",
				o.sched, strings.Join(topaz.PolicyNames(), ", "))
		}
	}
	cfg.Seed = o.seed
	cfg.LineWords = o.lineWords
	cfg.Faults = faults
	if o.cacheLines != 0 {
		cfg.CacheLines = o.cacheLines
	}
	if err := cfg.Validate(); err != nil {
		return badInput{err}
	}
	load := trace.SyntheticLoad{MissRate: o.miss, ShareFraction: o.share, SharedReadFraction: o.share / 2}
	loadErr := load.Validate()
	warm := sim.SecondsToCycles(o.warmup)
	switch {
	case o.workload == "synthetic" && loadErr != nil:
		return badInput{loadErr}
	case o.travel > 0 && o.workload != "synthetic":
		return badf("-travel only supports the synthetic workload (got %q)", o.workload)
	case o.travel > 0 && o.check:
		return badf("-travel is incompatible with -check (the replayed machine has no oracle)")
	case o.travel > 0 && o.travel < warm:
		return badf("-travel %d is before the end of warmup at cycle %d", o.travel, warm)
	case o.tracePath != "" && o.traceFormat != "jsonl" && o.traceFormat != "chrome":
		return badf("unknown trace format %q (known: jsonl, chrome)", o.traceFormat)
	}
	m := machine.New(cfg)

	var checker *check.Checker
	if o.check {
		if checker, err = check.Attach(m); err != nil {
			return badInput{err}
		}
	}
	var sink interface {
		obs.Observer
		Close() error
	}
	if o.tracePath != "" {
		f, ferr := os.Create(o.tracePath)
		if ferr != nil {
			return ferr
		}
		if o.traceFormat == "jsonl" {
			sink = obs.NewJSONL(f)
		} else {
			sink = obs.NewChrome(f)
		}
		m.Trace(sink)
		defer func() {
			if cerr := errors.Join(sink.Close(), f.Close()); err == nil && cerr != nil {
				err = fmt.Errorf("closing trace: %w", cerr)
			}
		}()
	}

	budget := sim.SecondsToCycles(o.seconds) * 100
	switch o.workload {
	case "synthetic":
		m.AttachSyntheticLoad(load)
		m.Warmup(warm)
		m.RunSeconds(o.seconds)
	case "exerciser":
		k := topaz.NewKernel(m, topaz.Config{Quantum: 1500, Dispatch: dispatch, Seed: o.seed})
		ex := workload.NewExerciser(k, workload.ExerciserConfig{
			Threads: 16, Rounds: 1_000_000, SharedFraction: 0.35, Seed: o.seed,
		})
		ex.Step(warm)
		m.ResetStats()
		ex.Step(sim.SecondsToCycles(o.seconds))
	case "make":
		if dispatch == nil {
			dispatch = topaz.MigrationAverse{}
		}
		k := topaz.NewKernel(m, topaz.Config{Quantum: 2000, Dispatch: dispatch, Seed: o.seed})
		res := workload.RunMake(k, workload.StandardBuild(8, 40_000), budget)
		fmt.Fprintf(w, "parallel make: finished=%v in %.2f Mcycles (ok=%v)\n",
			len(res.Finished), float64(res.Cycles)/1e6, res.OK)
	case "pipeline":
		k := topaz.NewKernel(m, topaz.Config{Quantum: 2000, Dispatch: dispatch, Seed: o.seed})
		res := workload.RunPipeline(k, workload.PipelineConfig{}, budget)
		fmt.Fprintf(w, "pipeline: %d items in %.2f Mcycles (ok=%v)\n",
			len(res.Output), float64(res.Cycles)/1e6, res.OK)
	case "compiler":
		k := topaz.NewKernel(m, topaz.Config{Quantum: 2000, Dispatch: dispatch, Seed: o.seed})
		res := workload.RunCompiler(k, workload.CompilerConfig{}, budget)
		fmt.Fprintf(w, "parallel compile: %d procedures in %.2f Mcycles (ok=%v)\n",
			len(res.Compiled), float64(res.Cycles)/1e6, res.OK)
	default:
		return badf("unknown workload %q", o.workload)
	}

	fmt.Fprint(w, m.Report())

	if o.travel > 0 {
		// The replayed machine replaces m, so the fault summary below
		// reads the state at cycle K. A stateful arbiter is not shared.
		cfg.Arbiter, _ = mbus.NewArbiterByName(o.arb)
		m = machine.New(cfg)
		m.AttachSyntheticLoad(load)
		m.Warmup(warm)
		if sink != nil {
			m.Trace(sink)
		}
		m.Run(o.travel - warm)
		fmt.Fprintf(w, "\ntime-travel: restored to cycle %d, replayed to cycle %d\n",
			warm, uint64(m.Clock().Now()))
		fmt.Fprint(w, m.Report())
	}

	if plan := m.Faults(); plan != nil {
		fs := plan.Stats()
		var mchecks uint64
		for i := 0; i < cfg.Processors; i++ {
			mchecks += m.Cache(i).Stats().MachineChecks
		}
		fmt.Fprintf(w, "faults: %d injected (bus parity %d, bus timeout %d, mem soft %d, mem uncorrectable %d, dma nxm %d, dma stall %d, tag parity %d); %d machine checks\n",
			fs.Total(), fs.BusParity.Value(), fs.BusTimeouts.Value(),
			fs.MemSoft.Value(), fs.MemUncorrect.Value(),
			fs.DMANXM.Value(), fs.DMAStalls.Value(), fs.TagParity.Value(), mchecks)
	}

	if checker == nil {
		return nil
	}
	checker.Walk()
	fmt.Fprintf(w, "coherence check: %d checked ops, %d walks\n", checker.Checked(), checker.Walks())
	return checkVerdict(w, "coherence check", "PASS", checker.Violations(), checker.Dropped())
}
