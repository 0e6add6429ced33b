package check

import (
	"fmt"
	"testing"

	"firefly/internal/coherence"
	"firefly/internal/cpu"
	"firefly/internal/fault"
	"firefly/internal/machine"
	"firefly/internal/obs"
	"firefly/internal/qbus"
	"firefly/internal/sim"
	"firefly/internal/stats"
	"firefly/internal/topaz"
	"firefly/internal/trace"
	"firefly/internal/workload"
)

// traceHash folds every observability event into an order-sensitive
// FNV-1a digest, so two runs produce the same hash only if they emit
// the same events with the same fields in the same order.
type traceHash struct {
	h uint64
	n uint64
}

func newTraceHash() *traceHash { return &traceHash{h: 14695981039346656037} }

func (th *traceHash) fold(v uint64) {
	for i := 0; i < 8; i++ {
		th.h ^= v & 0xff
		th.h *= 1099511628211
		v >>= 8
	}
}

func (th *traceHash) Observe(ev obs.Event) {
	th.n++
	th.fold(ev.Cycle)
	th.fold(uint64(ev.Kind))
	th.fold(uint64(uint32(ev.Unit)))
	th.fold(uint64(ev.Addr))
	th.fold(ev.A)
	th.fold(ev.B)
	for i := 0; i < len(ev.Label); i++ {
		th.h ^= uint64(ev.Label[i])
		th.h *= 1099511628211
	}
}

// bigstepRig is one machine under a big-step differential: its load,
// a fault plan, the QBus DMA engine and disk, the coherence oracle, and
// a trace hash over every emitted event. kernel is nil unless a Topaz
// kernel drives the processors.
type bigstepRig struct {
	m       *machine.Machine
	disk    *qbus.Disk
	engine  *qbus.Engine
	hash    *traceHash
	checker *Checker
	kernel  *topaz.Kernel
}

// bigstepFaults is the synthetic-load rig's fault plan: correctable
// classes only. Parity and timeouts are retried, soft memory errors
// corrected, DMA stalls waited out. The retry backoff windows are exactly
// the windows the event scan must get right (a backed-off requester is
// invisible to the bus).
var bigstepFaults = fault.Config{
	BusParityRate:    2e-4,
	BusTimeoutRate:   1e-4,
	MemSoftErrorRate: 2e-4,
	DMAStallRate:     2e-3,
}

func newBigstepRig(t *testing.T, protoName string, seed uint64, faults fault.Config) *bigstepRig {
	t.Helper()
	proto, ok := ProtocolByName(protoName)
	if !ok {
		t.Fatalf("unknown protocol %q", protoName)
	}
	m := machine.New(machine.Config{
		Processors: 3,
		Variant:    cpu.MicroVAX78032(),
		Protocol:   proto,
		CacheLines: 256,
		LineWords:  2,
		Seed:       seed,
		Faults:     &faults,
	})
	rig := attachRig(t, m, 20_000)
	m.AttachSyntheticLoad(trace.SyntheticLoad{MissRate: 0.2, ShareFraction: 0.1, SharedReadFraction: 0.05})
	return rig
}

// attachRig wires the oracle, the trace hash, and the QBus DMA engine
// and disk (QBus page 0 mapped to physical 0x40000) onto m.
func attachRig(t *testing.T, m *machine.Machine, seekCycles uint64) *bigstepRig {
	t.Helper()
	rig := &bigstepRig{m: m, hash: newTraceHash()}
	var err error
	rig.checker, err = Attach(m)
	if err != nil {
		t.Fatal(err)
	}
	m.Trace(rig.hash)
	maps := &qbus.MapRegisters{}
	maps.MapRange(0, 0x40000, 1<<15)
	rig.engine = qbus.NewEngine(m.Clock(), m.Bus(), maps, 0)
	rig.engine.SetFaultInjector(m.Faults())
	rig.disk = qbus.NewDisk(m.Clock(), m.Bus(), rig.engine, qbus.DiskConfig{SeekCycles: seekCycles})
	m.AddDevice(rig.engine)
	m.AddDevice(rig.disk)
	return rig
}

// driveBigstep runs the rig through the schedule that exercises every
// stepping regime: loaded processors (hot path), a halted phase with
// disk DMA draining (seek skips, word pacing, stall and backoff
// windows), a resume, and a fully quiescent tail.
func driveBigstep(rig *bigstepRig, step func(uint64)) {
	m := rig.m
	np := m.Config().Processors
	step(12_000)
	for i := 0; i < np; i++ {
		m.CPU(i).Halt()
	}
	rig.disk.Read(3, 0, nil)
	rig.disk.Write(5, 0x800, nil)
	step(90_000)
	for i := 0; i < np; i++ {
		m.CPU(i).Resume()
	}
	step(8_000)
	for i := 0; i < np; i++ {
		m.CPU(i).Halt()
	}
	step(30_000)
}

// TestBigStepDifferential drives identical machines through the same
// schedule, once through Run (which bulk-skips every provably dead
// window) and once stepped cycle-by-cycle, for all five protocols with
// fault injection live. It demands byte-identical reports, identical
// trace event streams (count and order-sensitive hash), identical
// device counters, and a green coherence oracle on both machines.
func TestBigStepDifferential(t *testing.T) {
	// The backoff subtests fault the bus often enough that processors
	// wait out backed-off retries inside processor-only windows: a
	// waiting processor stalls on every tick and has no compute ticks to
	// elide.
	backoff := bigstepFaults
	backoff.BusParityRate, backoff.BusTimeoutRate = 5e-3, 2e-3
	for _, plan := range []struct {
		prefix string
		faults fault.Config
	}{{"", bigstepFaults}, {"backoff/", backoff}} {
		for _, proto := range coherence.All() {
			plan, proto := plan, proto
			t.Run(plan.prefix+proto.Name(), func(t *testing.T) {
				t.Parallel()
				for _, seed := range []uint64{1, 11} {
					fast := newBigstepRig(t, proto.Name(), seed, plan.faults)
					slow := newBigstepRig(t, proto.Name(), seed, plan.faults)
					driveBigstep(fast, func(n uint64) { fast.m.Run(n) })
					driveBigstep(slow, stepEach(slow.m))
					label := fmt.Sprintf("seed %d", seed)
					diffRigs(t, label, fast, slow)
					var retries uint64
					for i := range slow.m.Caches() {
						retries += slow.m.Bus().PortStats(i).Retries
					}
					if plan.prefix != "" && retries == 0 {
						t.Errorf("%s: no cache retried a faulted bus operation", label)
					}
				}
			})
		}
	}
}

// stepEach returns a driver that advances m n cycles one Step at a time.
func stepEach(m *machine.Machine) func(uint64) {
	return func(n uint64) {
		for i := uint64(0); i < n; i++ {
			m.Step()
		}
	}
}

// diffRigs fails the test unless the big-step rig fast and the stepped
// rig slow agree byte for byte — clock, trace stream, report, device
// counters and kernel counters — and both satisfy the coherence oracle.
func diffRigs(t *testing.T, label string, fast, slow *bigstepRig) {
	t.Helper()
	if fc, sc := fast.m.Clock().Now(), slow.m.Clock().Now(); fc != sc {
		t.Fatalf("%s: clock diverged: big-step %d, stepped %d", label, fc, sc)
	}
	if fast.hash.n != slow.hash.n || fast.hash.h != slow.hash.h {
		t.Errorf("%s: trace streams diverged: big-step %d events (%#x), stepped %d events (%#x)",
			label, fast.hash.n, fast.hash.h, slow.hash.n, slow.hash.h)
	}
	if fr, sr := fmt.Sprint(fast.m.Report()), fmt.Sprint(slow.m.Report()); fr != sr {
		t.Errorf("%s: reports diverged\n--- big-step ---\n%s\n--- stepped ---\n%s", label, fr, sr)
	}
	fd := fmt.Sprintf("%+v %+v", fast.disk.Stats(), fast.engine.Stats())
	sd := fmt.Sprintf("%+v %+v", slow.disk.Stats(), slow.engine.Stats())
	if fd != sd {
		t.Errorf("%s: device counters diverged\n--- big-step ---\n%s\n--- stepped ---\n%s", label, fd, sd)
	}
	if fast.kernel != nil {
		if fk, sk := fmt.Sprintf("%+v", fast.kernel.Stats()), fmt.Sprintf("%+v", slow.kernel.Stats()); fk != sk {
			t.Errorf("%s: kernel counters diverged\n--- big-step ---\n%s\n--- stepped ---\n%s", label, fk, sk)
		}
	}
	for name, rig := range map[string]*bigstepRig{"big-step": fast, "stepped": slow} {
		rig.checker.Walk()
		for _, v := range rig.checker.Violations() {
			t.Errorf("%s: %s: oracle violation: %v", label, name, v)
		}
	}
}

// kernelRigCPUs is the processor count of the hook-driven rig.
const kernelRigCPUs = 4

// newKernelRig builds the hook-driven rig: a Topaz kernel running the
// threads exerciser plus an I/O thread whose topaz.Call queues a disk
// read, so an instruction hook hands a device work in the middle of a
// run of processor-only ticks. The fault plan injects only tag-store
// parity errors, drawn from one stream every cache shares in tick
// order; a parity error on a dirty line latches a machine check and
// Topaz offlines the processor.
func newKernelRig(t *testing.T, protoName string, v cpu.Variant, seed uint64) *bigstepRig {
	t.Helper()
	proto, ok := ProtocolByName(protoName)
	if !ok {
		t.Fatalf("unknown protocol %q", protoName)
	}
	m := machine.New(machine.Config{
		Processors: kernelRigCPUs,
		Variant:    v,
		Protocol:   proto,
		CacheLines: 1024,
		Seed:       seed,
		// Injections stop halfway through the 200 000-cycle run, so the
		// survivors of an offline keep running through the second half.
		Faults: &fault.Config{TagParityRate: 1e-4, EndCycle: 100_000},
	})
	rig := attachRig(t, m, 3_000)
	// The oracle still checks every load and store; the full walk of all
	// four caches runs every 1024 bus operations instead of every 16,
	// which would otherwise dominate the test's time.
	rig.checker.SetWalkEvery(1024)
	rig.kernel = topaz.NewKernel(m, topaz.Config{Seed: seed})
	workload.NewExerciser(rig.kernel, workload.ExerciserConfig{Threads: 6, Rounds: 400, Seed: seed})
	disk := rig.disk
	rig.kernel.Fork(topaz.LoopProgram(1<<20, func(i int) []topaz.Action {
		return []topaz.Action{
			topaz.Call{Fn: func() { disk.Read(uint32(i%8), uint32(i%4)*qbus.SectorBytes, nil) }},
			topaz.Compute{Instructions: 200},
			topaz.Sleep{Cycles: 4_000},
		}
	}), topaz.ThreadSpec{Name: "io", WorkingSetLines: 16}, nil)
	return rig
}

// kernelRigChunks is the hook-driven rig's 200 000-cycle run, driven in
// uneven chunks so Run's windows also end on the chunk boundaries.
var kernelRigChunks = []uint64{37_000, 63_000, 100_000}

// TestBigStepKernelDifferential is the Run-vs-Step differential for
// machines whose processors run instruction hooks: a Topaz kernel with
// the threads exerciser, both CPU variants (the CVAX ticks every cycle
// and draws its on-chip hits from the CPU's random stream), all five
// protocols, a shared tag-parity stream that offlines processors, and
// disk reads issued from a topaz.Call. Reports, kernel and device
// counters, trace streams and the oracle must agree byte for byte; the
// test also checks that each run hit the events it is meant to cover.
func TestBigStepKernelDifferential(t *testing.T) {
	for _, v := range []cpu.Variant{cpu.MicroVAX78032(), cpu.CVAX78034()} {
		for _, proto := range coherence.All() {
			v, proto := v, proto
			t.Run(v.Name+"/"+proto.Name(), func(t *testing.T) {
				t.Parallel()
				for _, seed := range []uint64{1, 2} {
					fast := newKernelRig(t, proto.Name(), v, seed)
					slow := newKernelRig(t, proto.Name(), v, seed)
					for _, n := range kernelRigChunks {
						fast.m.Run(n)
						stepEach(slow.m)(n)
					}
					label := fmt.Sprintf("seed %d", seed)
					diffRigs(t, label, fast, slow)
					checkKernelRigCoverage(t, label, slow)
				}
			})
		}
	}
}

// checkKernelRigCoverage fails the test if a run missed an event the
// hook-driven differential exists to cover: a hook-issued disk read, a
// tag-parity fault, and an offline that leaves a processor running.
// Write-through keeps no dirty line, so under write-through-invalidate
// every tag-parity error is correctable and no processor goes offline.
func checkKernelRigCoverage(t *testing.T, label string, rig *bigstepRig) {
	t.Helper()
	if rig.disk.Stats().Reads.Value() == 0 {
		t.Errorf("%s: no disk read completed", label)
	}
	var tagFaults uint64
	for _, c := range rig.m.Caches() {
		tagFaults += c.Stats().TagFaults
	}
	if tagFaults == 0 {
		t.Errorf("%s: no tag-parity fault injected", label)
	}
	off := rig.kernel.Stats().Offlines
	if _, wt := rig.m.Config().Protocol.(coherence.WriteThroughInvalidate); wt {
		if off != 0 {
			t.Errorf("%s: %d processors offlined under write-through", label, off)
		}
	} else if off < 1 || off >= kernelRigCPUs {
		t.Errorf("%s: %d of %d processors offlined, want at least one and not all", label, off, kernelRigCPUs)
	}
}

// runChunks are the lengths, in cycles, of the Run calls the chunked
// differential cycles through. The odd lengths start and end calls off
// tick boundaries and in the middle of bus operations.
var runChunks = []uint64{1, 2, 3, 5, 7, 64, 1001}

// TestChunkedRunDifferential pins Run's entry and exit rules: each call
// arms every processor's horizon from the clock and settles its elided
// compute ticks on return. One twin is driven by many short Run calls,
// the other by Step; after every call each processor's counters and the
// bus counters must agree, and at the end so must the reports. The
// machines cover a bus busy most cycles (10 MicroVAX CPUs at M=0.2), a
// processor that ticks every cycle (the CVAX), and instruction hooks (a
// Topaz kernel running the threads exerciser).
func TestChunkedRunDifferential(t *testing.T) {
	synthetic := func(cfg machine.Config, load trace.SyntheticLoad) func() *machine.Machine {
		return func() *machine.Machine {
			m := machine.New(cfg)
			m.AttachSyntheticLoad(load)
			return m
		}
	}
	for _, tc := range []struct {
		name   string
		cycles uint64
		build  func() *machine.Machine
	}{
		{"microvax-10cpu", 60_000, synthetic(machine.MicroVAXConfig(10), trace.SyntheticLoad{MissRate: 0.2, ShareFraction: 0.1, SharedReadFraction: 0.05})},
		{"cvax-4cpu", 60_000, synthetic(machine.CVAXConfig(4), trace.SyntheticLoad{MissRate: 0.05, ShareFraction: 0.1, SharedReadFraction: 0.05})},
		{"topaz-exerciser", 150_000, func() *machine.Machine {
			m := machine.New(machine.MicroVAXConfig(5))
			k := topaz.NewKernel(m, topaz.Config{Quantum: 1500, Seed: 3})
			workload.NewExerciser(k, workload.ExerciserConfig{Threads: 16, Rounds: 1_000_000, SharedFraction: 0.35, Seed: 3})
			return m
		}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			fast, slow := tc.build(), tc.build()
			for i, done := 0, uint64(0); done < tc.cycles; i++ {
				n := min(runChunks[i%len(runChunks)], tc.cycles-done)
				fast.Run(n)
				stepEach(slow)(n)
				done += n
				for p := range slow.Processors() {
					if fs, ss := fast.CPU(p).Stats(), slow.CPU(p).Stats(); fs != ss {
						t.Fatalf("cycle %d (chunk of %d): cpu%d diverged\nRun:  %+v\nStep: %+v", done, n, p, fs, ss)
					}
				}
				if fb, sb := fmt.Sprintf("%+v", fast.Bus().Stats()), fmt.Sprintf("%+v", slow.Bus().Stats()); fb != sb {
					t.Fatalf("cycle %d (chunk of %d): bus diverged\nRun:  %s\nStep: %s", done, n, fb, sb)
				}
			}
			if fr, sr := fmt.Sprint(fast.Report()), fmt.Sprint(slow.Report()); fr != sr {
				t.Errorf("reports diverged\n--- Run ---\n%s\n--- Step ---\n%s", fr, sr)
			}
			if slow.Bus().Stats().BusyCycles == 0 {
				t.Error("the bus never carried an operation")
			}
		})
	}
}

// parkedChunks are the lengths of the Run calls the parked-processor
// differential cycles through: three calls shorter than one bus
// operation, so many of them end with a processor parked, and one long
// enough to wake and park processors many times inside one call.
var parkedChunks = []uint64{1, 3, 7, 1013}

// parkedRound is the cycles of one pass through parkedChunks.
const parkedRound = 1 + 3 + 7 + 1013

// TestParkedRunDifferential pins Run's parking of processors whose access
// waits on a bus operation: the processor has no due boundary until the
// completion that leaves its cache idle, and its stall ticks are applied
// in bulk when it is next due or when Run returns. One twin is driven by
// Run calls of parkedChunks, the other by Step; after every call their
// full registry snapshots must agree, and at the end so must their
// reports. The loads keep the bus
// busy: the Table 1 sweep's densest point (10 CPUs at M=0.2), four-word
// lines in a small cache (victim writes chained to fills, write-throughs
// after fills), a fault plan whose parity errors, timeouts and retry
// exhaustion make a retried or abandoned operation the one a parked
// processor waits on, a Topaz kernel running the threads exerciser, and
// ticks of three and four cycles, whose references stall a second time
// on a probe in their boundary cycle (cpu.Processor.Tick).
func TestParkedRunDifferential(t *testing.T) {
	load := trace.SyntheticLoad{MissRate: 0.2, ShareFraction: 0.1, SharedReadFraction: 0.05}
	synthetic := func(cfg machine.Config, load trace.SyntheticLoad) func() *machine.Machine {
		return func() *machine.Machine {
			m := machine.New(cfg)
			m.AttachSyntheticLoad(load)
			return m
		}
	}
	multiword := machine.MicroVAXConfig(6)
	multiword.CacheLines, multiword.LineWords = 64, 4
	faulty := machine.MicroVAXConfig(6)
	faulty.CacheLines, faulty.LineWords = 256, 2
	faulty.Faults = &fault.Config{
		BusParityRate:     0.03,
		BusTimeoutRate:    0.01,
		TimeoutHoldCycles: 40,
		MaxRetries:        2,
		BackoffCycles:     8,
	}
	// Three-cycle ticks let a reference that took its probe stall reach
	// its next boundary in the cycle of another probe, so it stalls
	// again.
	slowTicks := machine.MicroVAXConfig(8)
	slowTicks.Variant.TickCycles = 3
	// With four-cycle ticks and processors alone on the bus every probe
	// falls two cycles after a boundary. A timed-out operation holding
	// the bus for 4+42 cycles shifts the bus's phase by two, so probes
	// land on boundaries, and back-to-back operations keep them there
	// until the bus idles. A miss rate of 0.8 keeps the bus as busy as
	// the processors' own probe stalls let it be (about 77%).
	tick4 := machine.MicroVAXConfig(8)
	tick4.Variant.TickCycles = 4
	tick4.Faults = &fault.Config{BusTimeoutRate: 0.005, TimeoutHoldCycles: 42, MaxRetries: 8, BackoffCycles: 4}
	sharedLoad := trace.SyntheticLoad{MissRate: 0.2, ShareFraction: 0.9, SharedReadFraction: 0.5}
	denseLoad := trace.SyntheticLoad{MissRate: 0.8, ShareFraction: 0.9, SharedReadFraction: 0.5}
	for _, tc := range []struct {
		name   string
		cycles uint64
		build  func() *machine.Machine
		// covered reports what the stepped twin must have exercised.
		covered func(m *machine.Machine) error
		// secondStalls: the stepped twin must stall some reference again
		// in a probe cycle; progress: every processor must also retire
		// instructions in every round of parkedChunks.
		secondStalls, progress bool
	}{
		{"table1-10cpu", 60_000, synthetic(machine.MicroVAXConfig(10), load), nil, false, false},
		{"multiword", 60_000, synthetic(multiword, load), func(m *machine.Machine) error {
			if r := m.Registry(); r.MustValue("cache0.victim_writes") == 0 || r.MustValue("cache0.write_through_shared") == 0 {
				return fmt.Errorf("cache0 made %d victim writes and %d shared write-throughs, want both > 0",
					r.MustValue("cache0.victim_writes"), r.MustValue("cache0.write_through_shared"))
			}
			return nil
		}, false, false},
		{"faults", 60_000, synthetic(faulty, load), func(m *machine.Machine) error {
			var retries, abandoned uint64
			for i, c := range m.Caches() {
				retries += m.Bus().PortStats(i).Retries
				abandoned += c.Stats().Abandoned
			}
			if timeouts := m.Faults().Stats().BusTimeouts.Value(); retries == 0 || abandoned == 0 || timeouts == 0 {
				return fmt.Errorf("%d retries, %d abandoned accesses, %d bus timeouts; want all > 0", retries, abandoned, timeouts)
			}
			return nil
		}, false, false},
		{"topaz-exerciser", 100_000, func() *machine.Machine {
			m := machine.New(machine.MicroVAXConfig(5))
			k := topaz.NewKernel(m, topaz.Config{Quantum: 1500, Seed: 3})
			workload.NewExerciser(k, workload.ExerciserConfig{Threads: 16, Rounds: 1_000_000, SharedFraction: 0.35, Seed: 3})
			return m
		}, nil, false, false},
		{"tick3-second-stall", 600_000, synthetic(slowTicks, sharedLoad), nil, true, false},
		{"tick4-second-stall", 600_000, synthetic(tick4, denseLoad), nil, true, true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			fast, slow := tc.build(), tc.build()
			ticks := sim.Cycle(slow.Config().Variant.TickCycles)
			ncpu := len(slow.Processors())
			// Per processor: probe stalls at the last boundary, the current
			// run of consecutive probe stalls, and instructions at the
			// start of the round.
			stalls, run, instrs := make([]uint64, ncpu), make([]int, ncpu), make([]uint64, ncpu)
			parkedEnds, seconds, longest := 0, 0, 0
			for i, done := 0, uint64(0); done < tc.cycles; i++ {
				n := min(parkedChunks[i%len(parkedChunks)], tc.cycles-done)
				fast.Run(n)
				for j := uint64(0); j < n; j++ {
					slow.Step()
					now := slow.Clock().Now()
					if now%ticks != 0 {
						continue
					}
					for p, cp := range slow.Processors() {
						k := cp.Stats().ProbeStalls
						if k == stalls[p] {
							run[p] = 0
							continue
						}
						stalls[p] = k
						if run[p]++; run[p] > 1 {
							seconds++
							if !slow.Cache(p).TagStoreBusyWithin(now, 1) {
								t.Fatalf("cycle %d: cpu%d stalled again outside a probe cycle", now, p)
							}
						}
						longest = max(longest, run[p])
					}
				}
				done += n
				if d := diffSnapshots(fast.Registry().Snapshot(), slow.Registry().Snapshot()); d != "" {
					t.Fatalf("cycle %d (Run(%d)): %s", done, n, d)
				}
				for p, c := range slow.Caches() {
					if slow.CPU(p).Waiting() && c.AwaitsBus() {
						parkedEnds++
						break
					}
				}
				if tc.progress && i%len(parkedChunks) == len(parkedChunks)-1 {
					for p, cp := range slow.Processors() {
						if k := cp.Stats().Instructions; k == instrs[p] {
							t.Fatalf("cycle %d: cpu%d retired no instruction in %d cycles", done, p, parkedRound)
						} else {
							instrs[p] = k
						}
					}
				}
			}
			if fr, sr := fmt.Sprint(fast.Report()), fmt.Sprint(slow.Report()); fr != sr {
				t.Errorf("reports diverged\n--- Run ---\n%s\n--- Step ---\n%s", fr, sr)
			}
			if parkedEnds == 0 {
				t.Error("no Run call ended with a processor waiting on a bus operation")
			}
			if tc.secondStalls {
				t.Logf("%d second probe stalls; longest run of stalls of one reference %d", seconds, longest)
				if seconds == 0 {
					t.Error("no reference stalled again in a probe cycle")
				}
			}
			if tc.covered != nil {
				if err := tc.covered(slow); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// diffSnapshots names the first counter on which two registry snapshots
// disagree, or returns "" when they match.
func diffSnapshots(run, step []stats.NamedValue) string {
	if len(run) != len(step) {
		return fmt.Sprintf("Run has %d counters, Step %d", len(run), len(step))
	}
	for i := range run {
		if run[i] != step[i] {
			return fmt.Sprintf("counter %s: Run %d, Step %d", step[i].Name, run[i].Value, step[i].Value)
		}
	}
	return ""
}
