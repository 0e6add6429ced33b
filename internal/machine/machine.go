// Package machine assembles whole Firefly systems: N processors behind
// snoopy caches, the MBus, the storage modules, and any attached I/O
// engines (QBus DMA, display controller), and runs the cycle loop. It is
// the measurement bench for the paper's Table 2 and the simulation
// cross-check of Table 1.
package machine

import (
	"fmt"
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
	// Tracer, when non-nil, receives observability events from the bus,
	// the caches, the scheduler, and DMA engines. Nil (the default) keeps
	// every emission site on a single pointer test. Tracing can also be
	// enabled after construction with Machine.Trace.
	Tracer *obs.Tracer
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
// dead windows in one bulk advance.
type Device interface {
	Step()
	NextEvent(now sim.Cycle) sim.Cycle
}

// CycleSkipper is an optional Device extension for devices whose Step
// has per-cycle accounting even while waiting (the DMA engine counts
// grant-wait and backoff stalls every cycle). When Run bulk-advances the
// clock by n cycles it calls SkipCycles(n) so the device applies the
// accounting those n elided Steps would have done. Devices without
// per-cycle side effects need not implement it.
type CycleSkipper interface {
	SkipCycles(n uint64)
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
	// skippers are the devices that implement CycleSkipper, in AddDevice
	// order, so SkipCycles makes no type assertion per call.
	skippers []CycleSkipper
	tracer   *obs.Tracer
	reg      *stats.Registry
	plan     *fault.Plan
	// hz holds each processor's place in the current processor-only
	// window (runQuiet), kept here so a window allocates nothing.
	hz []horizon
}

// horizon is one processor's place in a processor-only window, in tick
// boundary indices (cycle / TickCycles): its last real tick, and its next
// one (sim.Never once halted). The ticks strictly between are compute
// ticks, applied by SkipCompute when the processor is next due or when
// the window ends.
type horizon struct{ last, due sim.Cycle }

// New builds a machine. Reference sources start nil; attach them with
// AttachSources (or install a Topaz kernel) before running.
func New(cfg Config) *Machine {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{cfg: cfg, clock: &sim.Clock{}}
	m.bus = mbus.New(m.clock, cfg.Arbiter)
	m.mem = memory.NewSystem(cfg.MemoryModules, cfg.ModuleBytes)
	m.bus.AttachMemory(m.mem)
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
		m.bus.SetFaultInjector(m.plan)
		m.mem.SetECC(m.plan)
		for _, c := range m.caches {
			c.SetFaultPolicy(core.FaultPolicy{
				Tag:           m.plan,
				MaxRetries:    m.plan.MaxRetries(),
				BackoffCycles: m.plan.BackoffCycles(),
			})
		}
	}
	if cfg.Tracer != nil {
		m.installTracer(cfg.Tracer)
	}
	m.buildRegistry()
	return m
}

// installTracer points every emission site at tr.
func (m *Machine) installTracer(tr *obs.Tracer) {
	m.tracer = tr
	m.bus.SetTracer(tr)
	m.mem.SetTracer(tr, m.clock)
	for i, c := range m.caches {
		c.SetTracer(tr, i)
	}
	// Scheduler and DMA engines read the tracer lazily through
	// Machine.Tracer / Bus.Tracer, so nothing more to wire.
}

// Tracer returns the installed tracer, or nil when tracing is off.
func (m *Machine) Tracer() *obs.Tracer { return m.tracer }

// Trace enables tracing on a running machine, creating the tracer on
// first use and attaching the given sinks. It returns the tracer so
// callers can attach more sinks or read the event count.
func (m *Machine) Trace(sinks ...obs.Observer) *obs.Tracer {
	if m.tracer == nil {
		m.installTracer(obs.NewTracer())
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
	r.Register("bus.cycles", func() uint64 { return bus.Stats().Cycles })
	r.Register("bus.busy_cycles", func() uint64 { return bus.Stats().BusyCycles })
	r.Register("bus.shared_hits", func() uint64 { return bus.Stats().SharedHits })
	r.Register("bus.wait_cycles", func() uint64 { return bus.Stats().WaitCycles })
	r.Register("bus.ops.total", func() uint64 { return bus.Stats().TotalOps() })
	// Per-port fairness counters for the processor ports (DMA engines
	// attach after construction and are not registered; read Bus.Stats
	// directly for those). These expose arbitration fairness through
	// Report without tracing enabled.
	for i := 0; i < m.cfg.Processors; i++ {
		i := i
		r.Register(fmt.Sprintf("bus.port%d.wait_cycles", i), func() uint64 {
			return bus.Stats().WaitPerPort[i]
		})
		r.Register(fmt.Sprintf("bus.port%d.ops", i), func() uint64 {
			return bus.Stats().PerPort[i]
		})
	}
	for _, k := range opKinds {
		k := k
		r.Register("bus.ops."+strings.ToLower(k.String()), func() uint64 {
			return bus.Stats().Ops[k]
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
		r.Register(pre+"bus_faults", func() uint64 { return c.Stats().BusFaults })
		r.Register(pre+"retries", func() uint64 { return c.Stats().Retries })
		r.Register(pre+"tag_faults", func() uint64 { return c.Stats().TagFaults })
		r.Register(pre+"machine_checks", func() uint64 { return c.Stats().MachineChecks })
		r.Register(pre+"abandoned", func() uint64 { return c.Stats().Abandoned })
	}
	r.Register("bus.faulted_ops", func() uint64 { return m.bus.Stats().FaultedOps })
	r.Register("bus.dropped_interrupts", func() uint64 { return m.bus.Stats().DroppedInterrupts })
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
// fault-free. Callers wiring QBus DMA engines pass it (with its retry
// policy) to Engine.SetFaultPolicy so injection covers the I/O path too.
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
	if cs, ok := d.(CycleSkipper); ok {
		m.skippers = append(m.skippers, cs)
	}
}

// AttachSources installs a reference source per processor.
func (m *Machine) AttachSources(mk func(i int, c *core.Cache) trace.Source) {
	for i, p := range m.cpus {
		p.SetSource(mk(i, m.caches[i]))
	}
}

// AttachSyntheticLoad installs the parameterized generator on every
// processor: the machine-level analogue of the paper's trace
// characterization (M, S as given; D emerges from the write mix).
func (m *Machine) AttachSyntheticLoad(load trace.SyntheticLoad) {
	if err := load.Validate(); err != nil {
		panic(err)
	}
	shared := trace.NewSharedRegion(0x8000, 64)
	privateBytes := uint32(1 << 19) // 512 KB per CPU: far larger than the cache
	m.AttachSources(func(i int, c *core.Cache) trace.Source {
		return trace.NewSynthetic(trace.SyntheticConfig{
			MissRate:           load.MissRate,
			ShareFraction:      load.ShareFraction,
			SharedReadFraction: load.SharedReadFraction,
			PrivateBase:        mbus.Addr(0x100000 + uint32(i)*privateBytes),
			PrivateBytes:       privateBytes,
			Seed:               m.cfg.Seed*31 + uint64(i),
		}, shared, c)
	})
}

// Step advances the machine one bus cycle: bus, then caches (deferred
// work), then devices, then processors. Processor requests raised in this
// cycle reach arbitration on the next, matching the hardware's
// request/grant timing.
func (m *Machine) Step() {
	m.clock.Tick()
	m.bus.Step()
	for _, c := range m.caches {
		c.Step()
	}
	for _, d := range m.devices {
		d.Step()
	}
	for _, p := range m.cpus {
		p.Step()
	}
}

// Run advances the machine by n cycles, in two regimes chosen by one
// event scan over the bus, the caches and the devices — everything that
// owns time except the processors:
//
//   - While a bus operation is in flight, or something has an event at
//     the next cycle, Run steps one cycle.
//   - Otherwise the bus, caches and devices are quiet until the scanned
//     horizon H, and runQuiet moves the clock up to H-1 ticking only the
//     running processors, each only at its own references and
//     instruction boundaries; the compute ticks between are applied in
//     bulk (cpu.Processor.SkipCompute). Every real tick still runs at its
//     own boundary, in port order, so each instruction hook and reference
//     touches shared state (the Topaz ready queue, the fault plan's
//     tag-parity stream, the synthetic shared region) in exactly the order
//     Step would. The window ends after any boundary with a tick that was
//     not local (cpu.Processor.Tick): a cache access was left outstanding,
//     or an instruction hook reported non-local. Run then scans again.
//     With every processor halted no processor is ever due, and the window
//     is two bulk skips (to the first boundary, then to H-1): the fast
//     path for DMA drains, seek waits, scripted rigs and halted-CPU
//     measurement harnesses.
//
// The result is cycle-exact and byte-identical to stepping: inside a
// window the bus, cache and device steps are provably no-ops apart from
// the per-cycle accounting SkipCycles applies in bulk, and a compute tick
// touches only its own processor, which nothing reads mid-window.
func (m *Machine) Run(n uint64) {
	end := m.clock.Now() + sim.Cycle(n)
	for {
		now := m.clock.Now()
		if now >= end {
			return
		}
		if m.bus.Busy() {
			m.Step()
			continue
		}
		h := m.nextEvent(now)
		if h <= now+1 {
			m.Step()
			continue
		}
		stop := h - 1
		if stop > end {
			stop = end
		}
		m.runQuiet(now, stop)
	}
}

// runQuiet moves the clock from now to stop, or to the first tick boundary
// with a non-local tick, ticking each running processor only at the
// boundaries where it is due: the first boundary after now, and after each
// real tick the boundary following its ComputeAhead compute ticks. The
// clock and the per-cycle accounting jump straight from one visited
// boundary to the next. Due processors tick in port order, each first
// catching up its elided compute ticks; when the window ends every
// processor is settled through the last boundary, so the machine is left
// exactly as lockstep ticking leaves it. Valid only when nothing but the
// processors has an event in the window (nextEvent(now) > stop).
func (m *Machine) runQuiet(now, stop sim.Cycle) {
	tc := sim.Cycle(m.cfg.Variant.TickCycles)
	b, end := now/tc+1, stop/tc // first and last boundary index
	if b > end {
		m.SkipCycles(uint64(stop - now))
		return
	}
	m.SkipCycles(uint64(b*tc - now))
	// The first boundary ticks every processor, in the pass that sets the
	// horizons.
	local, next := true, sim.Never
	for i, p := range m.cpus {
		local = p.Tick() && local
		next = min(next, m.rearm(i, b))
	}
	if !local {
		return // every processor ticked at b, so none owes a compute tick
	}
	for local && next <= end {
		m.SkipCycles(uint64((next - b) * tc))
		b, next = next, sim.Never
		for i, p := range m.cpus {
			h := &m.hz[i]
			if h.due == b {
				p.SkipCompute(int(b - h.last - 1))
				local = p.Tick() && local
				m.rearm(i, b)
			}
			next = min(next, h.due)
		}
	}
	if local {
		b = end
	}
	for i, p := range m.cpus {
		if h := &m.hz[i]; h.due != sim.Never {
			p.SkipCompute(int(b - h.last))
		}
	}
	if local {
		m.SkipCycles(uint64(stop - m.clock.Now()))
	}
}

// rearm records that processor i ticked at boundary b and returns the
// boundary it is next due at.
func (m *Machine) rearm(i int, b sim.Cycle) sim.Cycle {
	h := &m.hz[i]
	h.last, h.due = b, sim.Never
	if p := m.cpus[i]; !p.Halted() {
		h.due = b + 1 + sim.Cycle(p.ComputeAhead())
	}
	return h.due
}

// nextEvent scans every time-owning component except the processors for
// its earliest future event. Only called with the bus inactive; the bus
// is still polled because backed-off requesters are invisible to it
// (their own NextEvent reports the retry expiry) while queued requesters
// make it report the next cycle.
func (m *Machine) nextEvent(now sim.Cycle) sim.Cycle {
	ev := m.bus.NextEvent(now)
	for _, c := range m.caches {
		ev = sim.EarliestEvent(ev, c.NextEvent(now))
	}
	for _, d := range m.devices {
		ev = sim.EarliestEvent(ev, d.NextEvent(now))
	}
	return ev
}

// SkipCycles advances the machine n cycles in one bulk jump: the clock
// and the bus cycle counter move, and CycleSkipper devices apply their
// per-cycle accounting. Valid only when no bus, cache, device or
// processor event falls inside the window; Run maintains that
// invariant.
func (m *Machine) SkipCycles(n uint64) {
	m.clock.Advance(sim.Cycle(n))
	m.bus.SkipCycles(n)
	for _, cs := range m.skippers {
		cs.SkipCycles(n)
	}
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
