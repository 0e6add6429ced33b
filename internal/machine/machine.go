// Package machine assembles whole Firefly systems: N processors behind
// snoopy caches, the MBus, the storage modules, and any attached I/O
// engines (QBus DMA, display controller), and runs the cycle loop. It is
// the measurement bench for the paper's Table 2 and the simulation
// cross-check of Table 1.
package machine

import (
	"fmt"
	"math/bits"
	"strings"

	"firefly/internal/core"
	"firefly/internal/cpu"
	"firefly/internal/fault"
	"firefly/internal/mbus"
	"firefly/internal/memory"
	"firefly/internal/obs"
	"firefly/internal/sim"
	"firefly/internal/stats"
	"firefly/internal/trace"
)

// Config describes a Firefly system.
type Config struct {
	// Processors is the CPU count. The hardware shipped with one to seven
	// (one primary I/O processor plus up to three dual-CPU boards); the
	// simulator allows more for saturation studies.
	Processors int
	// Variant selects the processor implementation.
	Variant cpu.Variant
	// Protocol is the cache coherence protocol (core.Firefly{} unless
	// running a baseline comparison).
	Protocol core.Protocol
	// CacheLines overrides the per-variant cache geometry (0 = default:
	// 4096 lines for the MicroVAX, 16384 for the CVAX).
	CacheLines int
	// LineWords sets the cache line size in longwords (0 = the hardware's
	// 1). Larger lines fill and write back with multiple sequential MBus
	// operations — the design the paper's footnote weighed and rejected.
	LineWords int
	// MemoryModules and ModuleBytes configure storage (0 = defaults:
	// 4 x 4 MB for the MicroVAX, 4 x 32 MB for the CVAX).
	MemoryModules int
	ModuleBytes   uint32
	// Arbiter selects the bus arbitration policy (nil: the hardware's
	// fixed priority). The machine adopts the instance — Reset is called
	// at construction — so stateful arbiters must not be shared between
	// machines; sweep points each construct their own.
	Arbiter mbus.Arbiter
	// Seed drives every random stream in the machine.
	Seed uint64
	// Faults, when non-nil, installs a deterministic fault-injection plan
	// across the MBus, storage ECC, and cache tag stores. A zero-valued
	// plan seed defaults to the machine seed, so fault runs stay
	// reproducible per Config.Seed. Nil (the default) builds the plan-free
	// machine: no injector hooks, no extra work on the hot loop.
	Faults *fault.Config
}

// MicroVAXConfig returns the original Firefly with n processors.
func MicroVAXConfig(n int) Config {
	return Config{
		Processors: n,
		Variant:    cpu.MicroVAX78032(),
		Protocol:   core.Firefly{},
		Seed:       1,
	}
}

// CVAXConfig returns the second-version Firefly with n processors.
func CVAXConfig(n int) Config {
	return Config{
		Processors:    n,
		Variant:       cpu.CVAX78034(),
		Protocol:      core.Firefly{},
		CacheLines:    core.CVAXLines,
		MemoryModules: 4,
		ModuleBytes:   memory.CVAXModuleBytes,
		Seed:          1,
	}
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Protocol == nil {
		out.Protocol = core.Firefly{}
	}
	if out.CacheLines == 0 {
		if out.Variant.TickCycles == 1 {
			out.CacheLines = core.CVAXLines
		} else {
			out.CacheLines = core.MicroVAXLines
		}
	}
	if out.MemoryModules == 0 {
		out.MemoryModules = 4
	}
	if out.ModuleBytes == 0 {
		out.ModuleBytes = memory.MicroVAXModuleBytes
	}
	if out.LineWords == 0 {
		out.LineWords = 1
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	return out
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Processors < 1 {
		return fmt.Errorf("machine: need at least one processor, got %d", c.Processors)
	}
	if c.Processors > 64 {
		return fmt.Errorf("machine: %d processors is beyond any plausible MBus", c.Processors)
	}
	if !zeroOrPowerOfTwo(c.CacheLines) {
		return fmt.Errorf("machine: cache lines must be 0 (default) or a power of two, got %d", c.CacheLines)
	}
	if !zeroOrPowerOfTwo(c.LineWords) {
		return fmt.Errorf("machine: line words must be 0 (default) or a power of two, got %d", c.LineWords)
	}
	// Each cache's data store holds CacheLines x LineWords longwords; one
	// larger than memory is no cache of this machine, and allocating it
	// could exhaust the host. Divided, not multiplied, so it cannot wrap.
	d := c.withDefaults()
	mem := uint64(d.MemoryModules) * uint64(d.ModuleBytes)
	if uint64(d.CacheLines) > mem/4/uint64(d.LineWords) {
		return fmt.Errorf("machine: a cache of %d lines x %d words is larger than the %d-byte memory",
			d.CacheLines, d.LineWords, mem)
	}
	return c.Variant.Validate()
}

func zeroOrPowerOfTwo(n int) bool { return n >= 0 && n&(n-1) == 0 }

// Device is an agent stepped once per bus cycle (DMA engines, the display
// controller's microengine, network nodes). NextEvent names the earliest
// future cycle at which stepping it may change observable state (a seek
// completing, a stall expiring, the next DMA word issuing). The contract
// matches the component NextEvent methods (see DESIGN.md, "The NextEvent
// contract"): a pure function of device state, allowed to under-report
// the distance (an early wake is only a lost skip) but never to
// over-report it, with sim.Never meaning no event without new work from
// outside the cycle loop. Run uses it to jump the clock over provably
// dead windows in one bulk advance, so a Step before the reported cycle
// must do nothing at all: a device that counts elapsed time derives the
// count from the clock when it is read. A device's operation raised on
// its bus request line is the bus's event, not the device's: Run asks the
// bus's NextEvent, which reads the lines.
type Device interface {
	Step()
	NextEvent(now sim.Cycle) sim.Cycle
}

// Scheduler is the kernel installed on a machine's processors, as far as
// Run needs to know it: it can declare stretches of time in which every
// running processor is private, so Run may tick each one alone through
// them (DESIGN.md, "Private runs").
//
// A processor is private while its next ticks touch nothing any other
// processor, the bus, a cache or a device reads, and read nothing they
// write: its instruction hook would only count boundaries, and every
// reference it makes comes from one static working set and hits in its
// own cache with no bus operation.
type Scheduler interface {
	// PrivateHorizon returns the first cycle, after now, at which some
	// running processor may stop being private, or now itself to refuse.
	// It is asked with the bus, the caches and the devices quiet and
	// every processor due at now already ticked; a horizon may lie past
	// the quiet window, which Run honours as well.
	PrivateHorizon(now sim.Cycle) sim.Cycle
	// PrivateDone hands back the instruction boundaries processor proc
	// crossed in a private run, at which its hook did not run.
	PrivateDone(proc int, boundaries uint64)
}

// Machine is an assembled Firefly system.
type Machine struct {
	cfg     Config
	clock   *sim.Clock
	bus     *mbus.Bus
	mem     *memory.System
	cpus    []*cpu.Processor
	caches  []*core.Cache
	devices []Device
	tracer  *obs.Tracer
	reg     *stats.Registry
	plan    *fault.Plan
	sched   Scheduler
	// hz holds each processor's horizon for the current Run call, and
	// cal indexes the processors by due boundary; both are kept here so a
	// Run allocates nothing.
	hz  []horizon
	cal calendar
}

// horizon is one processor's place in a Run call, in tick boundary
// indices (cycle / TickCycles): its last real tick, and its next one
// (sim.Never once halted, or while parked on a bus operation until
// wake). Run arms it on entry and settles it on return. The ticks
// strictly between are compute or stall ticks, applied by RunPrivate
// when the processor is next due or when Run returns.
type horizon struct {
	last, due sim.Cycle
	parked    bool
}

// New builds a machine. Reference sources start nil; attach them with
// AttachSources (or install a Topaz kernel) before running.
func New(cfg Config) *Machine {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{cfg: cfg, clock: &sim.Clock{}}
	m.mem = memory.NewSystem(cfg.MemoryModules, cfg.ModuleBytes)
	m.bus = mbus.New(m.clock, cfg.Arbiter, m.mem)
	for i := 0; i < cfg.Processors; i++ {
		cache := core.NewCacheGeometry(m.clock, cfg.Protocol, cfg.CacheLines, cfg.LineWords)
		p := cpu.New(i, m.clock, cfg.Variant, cache, nil, cfg.Seed+uint64(i)*7919)
		port := m.bus.Attach(cache, cache, p)
		if port != i {
			panic("machine: processor port mismatch")
		}
		m.caches = append(m.caches, cache)
		m.cpus = append(m.cpus, p)
	}
	m.hz = make([]horizon, cfg.Processors)
	if cfg.Faults != nil {
		fcfg := *cfg.Faults
		if fcfg.Seed == 0 {
			fcfg.Seed = cfg.Seed
		}
		m.plan = fault.NewPlan(fcfg, m.clock)
		pc := m.plan.Config()
		m.bus.SetFaultPolicy(m.plan, pc.MaxRetries, pc.BackoffCycles)
		m.mem.SetECC(m.plan)
		for _, c := range m.caches {
			c.SetTagFaultInjector(m.plan)
		}
	}
	m.buildRegistry()
	return m
}

// Tracer returns the installed tracer, or nil when tracing is off.
func (m *Machine) Tracer() *obs.Tracer { return m.tracer }

// Trace enables tracing, creating the machine's tracer on first use and
// attaching the given sinks. The tracer receives observability events
// from the bus, the storage, the caches, the scheduler and DMA engines;
// without one (the default) every emission site is a single pointer test.
// It returns the tracer so callers can attach more sinks or read the
// event count.
func (m *Machine) Trace(sinks ...obs.Observer) *obs.Tracer {
	if m.tracer == nil {
		tr := obs.NewTracer()
		m.tracer = tr
		m.bus.SetTracer(tr)
		m.mem.SetTracer(tr, m.clock)
		for i, c := range m.caches {
			c.SetTracer(tr, i)
		}
		// Scheduler and DMA engines read the tracer lazily through
		// Machine.Tracer / Bus.Tracer, so nothing more to wire.
	}
	for _, s := range sinks {
		m.tracer.Attach(s)
	}
	return m.tracer
}

// Registry returns the machine's statistics registry: every counter the
// machine maintains, by name. Report is a derived view of this registry.
func (m *Machine) Registry() *stats.Registry { return m.reg }

// opKinds enumerates the bus operation kinds for registry naming.
var opKinds = []mbus.OpKind{mbus.MRead, mbus.MWrite, mbus.MReadOwn, mbus.MUpdate, mbus.MInv}

// buildRegistry names every counter in the machine. Getters read the
// live component state, so a snapshot is always current and ResetStats
// needs no registry cooperation.
func (m *Machine) buildRegistry() {
	r := stats.NewRegistry()
	bus := m.bus
	r.Register("bus.cycles", func() uint64 { return bus.Counters().Cycles })
	r.Register("bus.busy_cycles", func() uint64 { return bus.Counters().BusyCycles })
	r.Register("bus.shared_hits", func() uint64 { return bus.Counters().SharedHits })
	r.Register("bus.wait_cycles", func() uint64 { return bus.Counters().WaitCycles })
	r.Register("bus.ops.total", func() uint64 { return bus.Counters().TotalOps() })
	// Per-port fairness counters for the processor ports (DMA engines
	// attach after construction and are not registered; read Bus.Stats
	// directly for those). These expose arbitration fairness through
	// Report without tracing enabled.
	for i := 0; i < m.cfg.Processors; i++ {
		i := i
		r.Register(fmt.Sprintf("bus.port%d.wait_cycles", i), func() uint64 { return bus.PortStats(i).WaitCycles })
		r.Register(fmt.Sprintf("bus.port%d.ops", i), func() uint64 { return bus.PortStats(i).Ops })
	}
	for _, k := range opKinds {
		k := k
		r.Register("bus.ops."+strings.ToLower(k.String()), func() uint64 {
			return bus.Counters().Ops[k]
		})
	}
	for i := range m.cpus {
		p := m.cpus[i]
		pre := fmt.Sprintf("cpu%d.", i)
		r.Register(pre+"instructions", func() uint64 { return p.Stats().Instructions })
		r.Register(pre+"ticks", func() uint64 { return p.Stats().Ticks })
		r.Register(pre+"stall_ticks", func() uint64 { return p.Stats().StallTicks })
		r.Register(pre+"probe_stalls", func() uint64 { return p.Stats().ProbeStalls })
		r.Register(pre+"reads", func() uint64 { return p.Stats().Reads })
		r.Register(pre+"writes", func() uint64 { return p.Stats().Writes })
		r.Register(pre+"onchip_hits", func() uint64 { return p.Stats().OnChipHits })
		r.Register(pre+"interrupts", func() uint64 { return p.Stats().Interrupts })
	}
	for i := range m.caches {
		c := m.caches[i]
		pre := fmt.Sprintf("cache%d.", i)
		r.Register(pre+"reads", func() uint64 { return c.Stats().Reads })
		r.Register(pre+"writes", func() uint64 { return c.Stats().Writes })
		r.Register(pre+"read_hits", func() uint64 { return c.Stats().ReadHits })
		r.Register(pre+"write_hits", func() uint64 { return c.Stats().WriteHits })
		r.Register(pre+"local_write_hits", func() uint64 { return c.Stats().LocalWriteHits })
		r.Register(pre+"read_misses", func() uint64 { return c.Stats().ReadMisses })
		r.Register(pre+"write_misses", func() uint64 { return c.Stats().WriteMisses })
		r.Register(pre+"fills", func() uint64 { return c.Stats().Fills })
		r.Register(pre+"fill_ops", func() uint64 { return c.Stats().FillOps })
		r.Register(pre+"victim_ops", func() uint64 { return c.Stats().VictimOps })
		r.Register(pre+"direct_write_misses", func() uint64 { return c.Stats().DirectWriteMisses })
		r.Register(pre+"victim_writes", func() uint64 { return c.Stats().VictimWrites })
		r.Register(pre+"write_through_shared", func() uint64 { return c.Stats().WriteThroughShared })
		r.Register(pre+"write_through_clean", func() uint64 { return c.Stats().WriteThroughClean })
		r.Register(pre+"invalidations", func() uint64 { return c.Stats().Invalidations })
		r.Register(pre+"snoop_probes", func() uint64 { return c.Stats().SnoopProbes })
		r.Register(pre+"snoop_hits", func() uint64 { return c.Stats().SnoopHits })
		r.Register(pre+"snoop_supplies", func() uint64 { return c.Stats().SnoopSupplies })
		r.Register(pre+"snoop_takes", func() uint64 { return c.Stats().SnoopTakes })
		r.Register(pre+"snoop_invals", func() uint64 { return c.Stats().SnoopInvals })
		r.Register(pre+"bus_faults", func() uint64 { return bus.PortStats(i).Faults })
		r.Register(pre+"retries", func() uint64 { return bus.PortStats(i).Retries })
		r.Register(pre+"tag_faults", func() uint64 { return c.Stats().TagFaults })
		r.Register(pre+"machine_checks", func() uint64 { return c.Stats().MachineChecks })
		r.Register(pre+"abandoned", func() uint64 { return c.Stats().Abandoned })
	}
	r.Register("bus.faulted_ops", func() uint64 { return m.bus.Counters().FaultedOps })
	r.Register("bus.dropped_interrupts", func() uint64 { return m.bus.Counters().DroppedInterrupts })
	r.Register("mem.ecc_corrected", func() uint64 { return m.mem.ECCStats().Corrected })
	r.Register("mem.ecc_uncorrectable", func() uint64 { return m.mem.ECCStats().Uncorrectable })
	if m.plan != nil {
		m.plan.RegisterStats(r)
	}
	m.reg = r
}

// Config returns the machine's (defaulted) configuration.
func (m *Machine) Config() Config { return m.cfg }

// Clock returns the machine clock.
func (m *Machine) Clock() *sim.Clock { return m.clock }

// Bus returns the MBus, for attaching I/O engines.
func (m *Machine) Bus() *mbus.Bus { return m.bus }

// Faults returns the installed fault plan, or nil when the machine runs
// fault-free. The bus already retries every initiator's faulted
// operations under the plan's policy; callers wiring QBus DMA engines
// pass the plan to Engine.SetFaultInjector so QBus-side NXM and stall
// faults are injected too.
func (m *Machine) Faults() *fault.Plan { return m.plan }

// Memory returns the storage system.
func (m *Machine) Memory() *memory.System { return m.mem }

// Processors returns the CPUs.
func (m *Machine) Processors() []*cpu.Processor { return m.cpus }

// CPU returns processor i.
func (m *Machine) CPU(i int) *cpu.Processor { return m.cpus[i] }

// Cache returns processor i's cache.
func (m *Machine) Cache(i int) *core.Cache { return m.caches[i] }

// Caches returns every processor's cache, indexed by processor. The
// returned slice is the machine's own; callers must not mutate it. The
// coherence checker walks it to compare line copies across caches.
func (m *Machine) Caches() []*core.Cache { return m.caches }

// AddDevice registers a device for per-cycle stepping. The device is
// responsible for attaching itself to the bus.
func (m *Machine) AddDevice(d Device) {
	m.devices = append(m.devices, d)
}

// SetScheduler installs the kernel that runs the processors (nil: none),
// so Run can ask it for private horizons.
func (m *Machine) SetScheduler(s Scheduler) { m.sched = s }

// AttachSources installs a reference source per processor.
func (m *Machine) AttachSources(mk func(i int, c *core.Cache) trace.Source) {
	for i, p := range m.cpus {
		p.SetSource(mk(i, m.caches[i]))
	}
}

// AttachSyntheticLoad installs the parameterized generator on every
// processor: the machine-level analogue of the paper's trace
// characterization (M, S as given; D emerges from the write mix). Each
// processor's private region lies above the first megabyte: 512 KB, far
// larger than the cache, or, where that many would overrun storage, an
// equal, word-aligned share of the storage above the megabyte.
func (m *Machine) AttachSyntheticLoad(load trace.SyntheticLoad) {
	if err := load.Validate(); err != nil {
		panic(err)
	}
	shared := trace.NewSharedRegion(0x8000, 64)
	const privateBase = 1 << 20
	privateBytes := uint64(1 << 19)
	n, above := uint64(len(m.cpus)), m.mem.Bytes()-min(m.mem.Bytes(), privateBase)
	if n*privateBytes > above {
		privateBytes = above / n &^ 3
	}
	m.AttachSources(func(i int, c *core.Cache) trace.Source {
		return trace.NewSynthetic(trace.SyntheticConfig{
			MissRate:           load.MissRate,
			ShareFraction:      load.ShareFraction,
			SharedReadFraction: load.SharedReadFraction,
			PrivateBase:        mbus.Addr(privateBase + uint64(i)*privateBytes),
			PrivateBytes:       uint32(privateBytes),
			Seed:               m.cfg.Seed*31 + uint64(i),
		}, shared, c)
	})
}

// Step advances the machine one bus cycle: bus, then devices, then, on a
// tick boundary, processors. Processor requests raised in this cycle
// reach arbitration on the next, matching the hardware's request/grant
// timing. Step is the lockstep reference Run
// is checked against: it ticks every running processor at every tick
// boundary.
func (m *Machine) Step() {
	m.stepShared()
	if m.clock.Now()%sim.Cycle(m.cfg.Variant.TickCycles) != 0 {
		return
	}
	for _, p := range m.cpus {
		p.Tick()
	}
}

// stepShared advances the clock one cycle and steps everything but the
// processors, in the order every cycle uses: bus, then devices. The
// caches act only through the bus. It returns the port whose bus
// operation completed in the cycle, or -1.
func (m *Machine) stepShared() (done int) {
	m.clock.Tick()
	done = m.bus.Step()
	for _, d := range m.devices {
		d.Step()
	}
	return done
}

// Run advances the machine by n cycles: RunUntil with no condition.
func (m *Machine) Run(n uint64) { m.RunUntil(nil, n) }

// RunUntil advances the machine until the first cycle at which until
// reads true, or by n cycles, and reports whether until held; a nil
// until never holds, and one true on entry runs no cycle. It panics if
// the clock would reach 2^63. until is checked before each stepped cycle
// and after each quiet window, so it may read only state that changes
// there: not processor counters (DESIGN.md "Running until a condition").
//
// RunUntil gives each processor one horizon for the whole call (armed
// on entry, settled at the cycle where it stops) and ticks a processor
// only at the boundaries where it is due: its references (probe stalls
// included), its instruction boundaries, and the first boundary after
// the bus completion that ends an access it is parked on (Busy holds
// through that cycle). The compute and parked ticks between are applied
// in bulk (cpu.Processor.RunPrivate) when the processor is next due or
// when RunUntil returns. A calendar indexes the processors by due
// boundary, so a boundary visits only the processors due at it. Due
// processors tick in port order, so each instruction hook and reference
// touches shared state (the Topaz ready queue, the fault plan's
// tag-parity stream, the synthetic shared region) in exactly the order
// Step would.
//
// The rest of the machine runs in two regimes, chosen by Bus.Busy and one
// event scan over the bus, whose request lines carry every cache's
// raised operation, and the devices — everything that owns time except
// the processors:
//
//   - While a bus operation is in flight, or something has an event at
//     the next cycle, RunUntil steps the bus and devices one cycle, wakes
//     the processor whose operation completed in it, and then ticks the
//     processors due at that boundary.
//   - Otherwise they are quiet until the scanned horizon H, and runQuiet
//     jumps the clock from one due boundary to the next, up to H-1. The
//     window ends after any boundary with a tick that was not local
//     (cpu.Processor.Tick): a cache access was left outstanding, or an
//     instruction hook reported non-local. RunUntil then checks until and
//     scans again. With every processor halted no processor is ever due,
//     and the window is one clock jump: the fast path for DMA drains,
//     seek waits, scripted rigs and halted-CPU measurement harnesses.
//
// The result is cycle-exact and byte-identical to stepping. Inside a
// window the bus and device steps are provably no-ops, and every
// counter of elapsed time is derived from the clock. A compute tick
// touches only its own processor, and nothing the bus, caches or devices
// do reads or writes a processor's instruction record or counters: a bus
// interrupt only queues on the processor, a processor is halted only by
// its own hook or from outside RunUntil, and a cache's Busy is read only
// by a waiting processor, which has no compute ahead.
func (m *Machine) RunUntil(until func() bool, n uint64) bool {
	tc := sim.Cycle(m.cfg.Variant.TickCycles)
	now := m.clock.Now()
	if n >= 1<<63-uint64(now) {
		panic(fmt.Sprintf("machine: running %d cycles at cycle %d passes the simulator's 2^63-cycle range", n, now))
	}
	end := now + sim.Cycle(n)
	m.cal.reset(now / tc)
	for i := range m.cpus {
		m.cal.insert(i, m.rearm(i, now/tc))
	}
	for now < end && (until == nil || !until()) {
		if !m.bus.Busy() {
			if h := m.nextEvent(now); h > now+1 {
				m.runQuiet(now, min(h-1, end))
				now = m.clock.Now()
				continue
			}
		}
		done := m.stepShared()
		now++
		if done >= 0 {
			m.cal.insert(done, m.wake(done, now))
		}
		if b := m.cal.next; b != sim.Never && now == b*tc {
			m.tickDue(b)
		}
	}
	for i, p := range m.cpus {
		if h := &m.hz[i]; h.due != sim.Never || h.parked {
			p.RunPrivate(int(now/tc - h.last))
		}
	}
	return until != nil && until()
}

// runQuiet moves the clock from now to stop, or to the first tick boundary
// with a non-local tick, advancing it straight from one due boundary to
// the next, as the calendar names them. Valid only when nothing but the
// processors has an event in the window (nextEvent(now) > stop): the bus
// and device steps it leaves out would all have been no-ops.
func (m *Machine) runQuiet(now, stop sim.Cycle) {
	tc := sim.Cycle(m.cfg.Variant.TickCycles)
	if m.sched != nil && m.cal.next <= stop/tc {
		m.runPrivate(now, stop)
	}
	for b := m.cal.next; b <= stop/tc; b = m.cal.next {
		m.clock.Advance(b*tc - now)
		now = b * tc
		if !m.tickDue(b) {
			return
		}
	}
	m.clock.Advance(stop - now)
}

// runPrivate runs every processor alone through the boundaries before
// the scheduler's private horizon that lie in the quiet window ending at
// stop. Each processor ticks through them in one call
// (cpu.Processor.RunPrivate), hands its instruction boundaries back to
// the scheduler once, and is rearmed from the last of them in a
// calendar emptied for it. The clock stays at now: no private tick reads
// it, and runQuiet moves it on to the next due boundary.
func (m *Machine) runPrivate(now, stop sim.Cycle) {
	h := m.sched.PrivateHorizon(now)
	if h <= now {
		return
	}
	// b is the last boundary at or before both stop and h-1; written so
	// that h == sim.Never cannot wrap.
	b := min(h-1, stop) / sim.Cycle(m.cfg.Variant.TickCycles)
	if b < m.cal.next {
		return
	}
	m.cal.reset(b)
	for i, p := range m.cpus {
		if hz := &m.hz[i]; hz.due != sim.Never {
			n := p.RunPrivate(int(b - hz.last))
			m.sched.PrivateDone(i, n)
			m.cal.insert(i, m.rearm(i, b))
		}
	}
}

// tickDue ticks the processors the calendar holds due at boundary b, the
// earliest due boundary, in port order, first moving the far dues that b
// reaches into the wheel: each first catches up its elided compute or
// stall ticks, and is rearmed. It reports whether every tick stayed
// local.
func (m *Machine) tickDue(b sim.Cycle) (local bool) {
	if m.cal.farMin == b {
		m.cal.promote(b, m.hz)
	}
	local = true
	for due := m.cal.take(b); due != 0; due &= due - 1 {
		i := bits.TrailingZeros64(due)
		p := m.cpus[i]
		if k := b - m.hz[i].last - 1; k > 0 {
			p.RunPrivate(int(k))
		}
		local = p.Tick() && local
		m.cal.insert(i, m.rearm(i, b))
	}
	return local
}

// rearm records boundary b as processor i's last real tick and returns
// the boundary it is next due at, which the caller files in the
// calendar: sim.Never when it is halted, or parked because its access
// waits on a bus operation.
func (m *Machine) rearm(i int, b sim.Cycle) sim.Cycle {
	h, p := &m.hz[i], m.cpus[i]
	h.last, h.due, h.parked = b, sim.Never, false
	switch {
	case p.Halted():
	case p.Waiting() && m.caches[i].AwaitsBus():
		h.parked = true
	default:
		h.due = b + 1 + sim.Cycle(p.ComputeAhead())
	}
	return h.due
}

// wake makes processor port due at the first boundary after cycle now,
// if it is parked and the bus operation that completed on its port at
// now left its cache idle, and returns that boundary for the caller to
// file in the calendar, or sim.Never when it wakes nothing.
func (m *Machine) wake(port int, now sim.Cycle) sim.Cycle {
	if port >= len(m.hz) || !m.hz[port].parked || m.caches[port].AwaitsBus() {
		return sim.Never
	}
	h := &m.hz[port]
	h.parked = false
	h.due = now/sim.Cycle(m.cfg.Variant.TickCycles) + 1
	return h.due
}

// calendar indexes the processors that have a due boundary by it, one
// bit per port (Validate caps a machine at 64 processors). A due less
// than 64 boundaries past base sits in wheel slot due&63; a later one
// waits in far until tickDue reaches the far set's earliest due, and
// promote moves it into the wheel.
// occ has bit s set while slot s is not empty, so the earliest due is
// one rotate and one count of trailing zeros away.
type calendar struct {
	next     sim.Cycle // the earliest due boundary, sim.Never with none
	base     sim.Cycle // no due lies before it
	farMin   sim.Cycle // the earliest due in far, sim.Never with none
	occ, far uint64
	wheel    [64]uint64
}

// reset empties the calendar, clearing only the occupied slots, and
// bases it at boundary b.
func (c *calendar) reset(b sim.Cycle) {
	for o := c.occ; o != 0; o &= o - 1 {
		c.wheel[bits.TrailingZeros64(o)] = 0
	}
	c.occ, c.far = 0, 0
	c.base, c.farMin, c.next = b, sim.Never, sim.Never
}

// insert files port i as due at boundary d, which must not lie before
// base; sim.Never files nothing.
func (c *calendar) insert(i int, d sim.Cycle) {
	switch {
	case d == sim.Never:
		return
	case d-c.base < 64:
		c.wheel[d&63] |= 1 << i
		c.occ |= 1 << (d & 63)
	default:
		c.far |= 1 << i
		c.farMin = min(c.farMin, d)
	}
	c.next = min(c.next, d)
}

// take rebases the calendar at b, the earliest due boundary, and removes
// and returns the ports due at it. The far set must hold none due at b.
func (c *calendar) take(b sim.Cycle) (due uint64) {
	c.base = b
	s := b & 63
	due = c.wheel[s]
	c.wheel[s] = 0
	c.occ &^= 1 << s
	c.next = c.farMin
	if c.occ != 0 {
		c.next = min(c.next, b+sim.Cycle(bits.TrailingZeros64(bits.RotateLeft64(c.occ, -int(s)))))
	}
	return due
}

// promote rebases the calendar at b and moves every far due less than 64
// boundaries past it into the wheel; hz holds each port's due.
func (c *calendar) promote(b sim.Cycle, hz []horizon) {
	c.base = b
	far := c.far
	c.far, c.farMin = 0, sim.Never
	for ; far != 0; far &= far - 1 {
		i := bits.TrailingZeros64(far)
		c.insert(i, hz[i].due)
	}
}

// nextEvent returns the earliest future event of every time-owning
// component except the processors: the bus, whose request lines carry
// every cache's, QBus engine's and display controller's raised
// operation and its retry backoff, and the devices.
func (m *Machine) nextEvent(now sim.Cycle) sim.Cycle {
	ev := m.bus.NextEvent(now)
	for _, d := range m.devices {
		ev = min(ev, d.NextEvent(now))
	}
	return ev
}

// RunSeconds advances the machine by the given simulated time, rounded
// to the nearest whole cycle (truncation silently lost a cycle for
// wall-times that are not exact cycle multiples).
func (m *Machine) RunSeconds(s float64) {
	m.Run(sim.SecondsToCycles(s))
}

// Warmup runs the machine for n cycles and then clears every statistic,
// so measurements exclude cold-start transients (the paper's Table 2
// one-CPU column is visibly distorted by exactly such effects).
func (m *Machine) Warmup(n uint64) {
	m.Run(n)
	m.ResetStats()
}

// ResetStats clears all counters (cache contents are preserved).
func (m *Machine) ResetStats() {
	m.bus.ResetStats()
	for _, c := range m.caches {
		c.ResetStats()
	}
	for _, p := range m.cpus {
		p.ResetStats()
	}
}
