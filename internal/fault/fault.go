// Package fault is the deterministic fault-injection layer: a seeded,
// cycle- and address-targeted plan of hardware faults threaded through
// the machine. The Firefly's premise is graceful scaling — simple
// MBus/QBus hardware with error handling pushed up into software — and
// this package supplies the errors: MBus parity errors and timeouts,
// main-storage soft errors under an ECC detect/correct model, QBus NXM
// aborts and DMA stalls, and cache tag-store parity faults.
//
// Determinism contract: a Plan owns one independent xorshift stream per
// subsystem (bus, memory, DMA, tags, network), all derived from one seed, so a
// given plan + machine seed reproduces the exact same fault storm —
// injections, recoveries, event stream, and final report are
// byte-identical across runs. A plan whose rates are all zero draws no
// random numbers at all (a zero sim.Chance consumes no state) and is
// behaviourally indistinguishable from no plan.
//
// The package deliberately imports only mbus, sim, and stats. The
// component-side injection points are small interfaces declared by each
// component (mbus.FaultInjector, memory.ECCModel, core.TagFaultInjector,
// qbus.DMAFaultInjector, net.FaultInjector); Plan satisfies all of them
// structurally, so no component depends on this package. Recovery from
// a faulted bus operation is the bus's: machine.New hands the plan and
// its retry policy to mbus.Bus.SetFaultPolicy, so every initiator on
// the bus sees only the fault that spends the retry budget.
package fault

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"firefly/internal/mbus"
	"firefly/internal/sim"
	"firefly/internal/stats"
)

// Config describes a fault plan. All rates are per-event probabilities
// in [0,1]; a zero-value Config injects nothing.
type Config struct {
	// BusParityRate is the per-MBus-operation probability of an address
	// or data parity error. The operation aborts with no architectural
	// effect and the bus retries it.
	BusParityRate float64
	// BusTimeoutRate is the per-operation probability of a bus timeout:
	// like a parity error, but the operation additionally holds the bus
	// for TimeoutHoldCycles while the watchdog runs out.
	BusTimeoutRate float64
	// TimeoutHoldCycles is the watchdog window (default 8).
	TimeoutHoldCycles uint64

	// MemSoftErrorRate is the per-memory-read probability of a storage
	// soft error. ECC corrects most of them in flight.
	MemSoftErrorRate float64
	// MemUncorrectableFraction is the fraction of soft errors beyond
	// single-bit correction; those surface as faulted reads (default 0,
	// i.e. every soft error is correctable).
	MemUncorrectableFraction float64

	// DMANXMRate is the per-DMA-word probability of an injected
	// non-existent-memory abort: the transfer dies as on a mapping fault.
	DMANXMRate float64
	// DMAStallRate is the per-DMA-word probability of a controller stall
	// of DMAStallCycles (default 50).
	DMAStallRate   float64
	DMAStallCycles uint64

	// TagParityRate is the per-cache-hit probability of a tag-store
	// parity error. On a clean line the cache invalidates and refetches
	// (correctable); on a dirty line — the sole copy of its data — the
	// error is uncorrectable and latches a machine check.
	TagParityRate float64

	// NetDropRate is the per-frame probability that the shared Ethernet
	// segment silently loses a delivered frame (receiver deafness, CRC
	// damage). The RPC transport recovers by retransmission.
	NetDropRate float64

	// MaxRetries bounds the retries the bus spends on a faulted
	// operation before handing the fault to its initiator (default 4).
	MaxRetries int
	// BackoffCycles is the base retry backoff; it doubles per attempt
	// (default 16).
	BackoffCycles uint64

	// StartCycle/EndCycle window the injections (EndCycle 0 = no end),
	// and AddrMin/AddrMax target them (both 0 = all addresses). Windowed
	// or targeted draws outside the plan's scope consume no randomness.
	StartCycle, EndCycle uint64
	AddrMin, AddrMax     mbus.Addr

	// Seed drives the plan's random streams (0: the machine seed).
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.TimeoutHoldCycles == 0 {
		c.TimeoutHoldCycles = 8
	}
	if c.DMAStallCycles == 0 {
		c.DMAStallCycles = 50
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 4
	}
	if c.BackoffCycles == 0 {
		c.BackoffCycles = 16
	}
	return c
}

// Validate checks rate ranges and rejects empty cycle windows and
// address ranges, which would silently inject nothing, and retry
// schedules whose largest backoff, or DMA stalls whose length, reaches
// 2^63 cycles.
func (c Config) Validate() error {
	check := func(name string, v float64) error {
		if !(v >= 0 && v <= 1) { // NaN fails both comparisons
			return fmt.Errorf("fault: %s %g outside [0,1]", name, v)
		}
		return nil
	}
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"bus parity rate", c.BusParityRate},
		{"bus timeout rate", c.BusTimeoutRate},
		{"memory soft-error rate", c.MemSoftErrorRate},
		{"memory uncorrectable fraction", c.MemUncorrectableFraction},
		{"DMA NXM rate", c.DMANXMRate},
		{"DMA stall rate", c.DMAStallRate},
		{"tag parity rate", c.TagParityRate},
		{"net frame-drop rate", c.NetDropRate},
	} {
		if err := check(r.name, r.v); err != nil {
			return err
		}
	}
	d := c.withDefaults()
	switch {
	case c.MaxRetries < 0:
		return fmt.Errorf("fault: negative max retries %d", c.MaxRetries)
	case d.MaxRetries > 64-bits.Len64(d.BackoffCycles):
		// The last retry backs off BackoffCycles<<(MaxRetries-1) cycles,
		// which must stay below 2^63 so it neither wraps to zero nor
		// moves the retry cycle into the past.
		return fmt.Errorf("fault: largest retry backoff %d<<%d cycles reaches 2^63", d.BackoffCycles, d.MaxRetries-1)
	case c.DMAStallCycles >= 1<<63:
		// The stall's end cycle would wrap into the past: no stall at all.
		return fmt.Errorf("fault: DMA stall of %d cycles reaches 2^63", c.DMAStallCycles)
	case c.EndCycle != 0 && c.EndCycle < c.StartCycle:
		return fmt.Errorf("fault: empty cycle window: end %d before start %d", c.EndCycle, c.StartCycle)
	case c.AddrMax != 0 && c.AddrMax < c.AddrMin:
		return fmt.Errorf("fault: empty address range: max %#x below min %#x", uint32(c.AddrMax), uint32(c.AddrMin))
	}
	return nil
}

// Stats counts the plan's injections (recovery accounting lives with the
// bus, which counts retries per port, and the recovering components).
type Stats struct {
	BusParity    stats.Counter
	BusTimeouts  stats.Counter
	MemSoft      stats.Counter // soft errors drawn (correctable + not)
	MemUncorrect stats.Counter
	DMANXM       stats.Counter
	DMAStalls    stats.Counter
	TagParity    stats.Counter
	NetDrops     stats.Counter
}

// Total returns the total injections.
func (s Stats) Total() uint64 {
	return s.BusParity.Value() + s.BusTimeouts.Value() + s.MemSoft.Value() +
		s.DMANXM.Value() + s.DMAStalls.Value() + s.TagParity.Value() +
		s.NetDrops.Value()
}

// Plan is a live injector built from a Config: one per machine, wired by
// machine.New into the bus (with the retry policy), the storage array and
// every cache, and by the caller into any DMA engines. Each subsystem draws from its own derived
// stream, so enabling one fault class does not perturb another's draws.
// The plan owns no time: every injection is drawn when an acting
// component consults it, so skipping cycles in which nothing acts cannot
// skip a fault.
type Plan struct {
	cfg   Config
	clock *sim.Clock

	busRand *sim.Rand
	memRand *sim.Rand
	dmaRand *sim.Rand
	tagRand *sim.Rand
	netRand *sim.Rand

	// The per-event rates, prepared once (sim.Chance).
	busParity, busTimeout, memSoft, memUncorrect sim.Chance
	dmaNXM, dmaStall, tagParity, netDrop         sim.Chance

	stats Stats
}

// NewPlan builds a plan on the given clock (used for cycle windowing).
func NewPlan(cfg Config, clock *sim.Clock) *Plan {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	root := sim.NewRand(cfg.Seed*0x9e3779b97f4a7c15 + 0xf4a17)
	return &Plan{
		cfg:   cfg,
		clock: clock,
		// The net stream is split last, so plans predating it draw the
		// exact same bus/mem/dma/tag sequences as before.
		busRand: root.Split(),
		memRand: root.Split(),
		dmaRand: root.Split(),
		tagRand: root.Split(),
		netRand: root.Split(),

		busParity:    sim.NewChance(cfg.BusParityRate),
		busTimeout:   sim.NewChance(cfg.BusTimeoutRate),
		memSoft:      sim.NewChance(cfg.MemSoftErrorRate),
		memUncorrect: sim.NewChance(cfg.MemUncorrectableFraction),
		dmaNXM:       sim.NewChance(cfg.DMANXMRate),
		dmaStall:     sim.NewChance(cfg.DMAStallRate),
		tagParity:    sim.NewChance(cfg.TagParityRate),
		netDrop:      sim.NewChance(cfg.NetDropRate),
	}
}

// Config returns the plan's (defaulted) configuration.
func (p *Plan) Config() Config { return p.cfg }

// Stats returns a snapshot of the injection counters.
func (p *Plan) Stats() Stats { return p.stats }

// active reports whether the plan targets this cycle and address. An
// inactive consultation draws no randomness.
func (p *Plan) active(addr mbus.Addr) bool {
	now := uint64(p.clock.Now())
	if now < p.cfg.StartCycle {
		return false
	}
	if p.cfg.EndCycle != 0 && now > p.cfg.EndCycle {
		return false
	}
	if p.cfg.AddrMax != 0 && (addr < p.cfg.AddrMin || addr > p.cfg.AddrMax) {
		return false
	}
	return true
}

// OpFault implements mbus.FaultInjector.
func (p *Plan) OpFault(op mbus.OpKind, addr mbus.Addr) (mbus.FaultKind, uint64) {
	if !p.active(addr) {
		return mbus.FaultNone, 0
	}
	if p.busRand.Hit(p.busParity) {
		p.stats.BusParity.Inc()
		return mbus.FaultParity, 0
	}
	if p.busRand.Hit(p.busTimeout) {
		p.stats.BusTimeouts.Inc()
		return mbus.FaultTimeout, p.cfg.TimeoutHoldCycles
	}
	return mbus.FaultNone, 0
}

// ReadFault implements memory.ECCModel.
func (p *Plan) ReadFault(addr mbus.Addr) (bool, bool) {
	if !p.active(addr) || !p.memRand.Hit(p.memSoft) {
		return false, false
	}
	p.stats.MemSoft.Inc()
	if p.memRand.Hit(p.memUncorrect) {
		p.stats.MemUncorrect.Inc()
		return true, true
	}
	return true, false
}

// DMAWordFault implements qbus.DMAFaultInjector.
func (p *Plan) DMAWordFault(addr mbus.Addr) (nxm bool, stallCycles uint64) {
	if !p.active(addr) {
		return false, 0
	}
	if p.dmaRand.Hit(p.dmaNXM) {
		p.stats.DMANXM.Inc()
		return true, 0
	}
	if p.dmaRand.Hit(p.dmaStall) {
		p.stats.DMAStalls.Inc()
		return false, p.cfg.DMAStallCycles
	}
	return false, 0
}

// TagFault implements core.TagFaultInjector.
func (p *Plan) TagFault(addr mbus.Addr) bool {
	if !p.active(addr) || !p.tagRand.Hit(p.tagParity) {
		return false
	}
	p.stats.TagParity.Inc()
	return true
}

// FrameDrop implements net.FaultInjector: consulted once per delivered
// Ethernet frame. Frames have no MBus address, so only the plan's cycle
// window applies.
func (p *Plan) FrameDrop() bool {
	now := uint64(p.clock.Now())
	if now < p.cfg.StartCycle || (p.cfg.EndCycle != 0 && now > p.cfg.EndCycle) {
		return false
	}
	if !p.netRand.Hit(p.netDrop) {
		return false
	}
	p.stats.NetDrops.Inc()
	return true
}

// RegisterStats names the plan's injection counters in a registry.
func (p *Plan) RegisterStats(r *stats.Registry) {
	r.RegisterCounter("fault.bus_parity", &p.stats.BusParity)
	r.RegisterCounter("fault.bus_timeouts", &p.stats.BusTimeouts)
	r.RegisterCounter("fault.mem_soft", &p.stats.MemSoft)
	r.RegisterCounter("fault.mem_uncorrectable", &p.stats.MemUncorrect)
	r.RegisterCounter("fault.dma_nxm", &p.stats.DMANXM)
	r.RegisterCounter("fault.dma_stalls", &p.stats.DMAStalls)
	r.RegisterCounter("fault.tag_parity", &p.stats.TagParity)
	r.RegisterCounter("fault.net_drops", &p.stats.NetDrops)
}

// ParseSpec parses the -faults command-line syntax: comma-separated
// key=value pairs. Keys: bus (parity rate), timeout (timeout rate), mem
// (soft-error rate), memunc (uncorrectable fraction), nxm, stall (DMA
// rates), tag (tag parity rate), drop (Ethernet frame-drop rate), all
// (sets bus/timeout/mem/nxm/stall/tag to one rate), retries, backoff,
// stallcycles, hold, start, end, seed, addrmin, addrmax. retries,
// backoff, stallcycles and hold reject 0, which the plan would replace
// with its default. Example: "bus=1e-4,mem=1e-4,retries=4".
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	defaults := cfg.withDefaults()
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Config{}, fmt.Errorf("fault: %q is not key=value", field)
		}
		rate := func(dst ...*float64) error {
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return fmt.Errorf("fault: bad value in %q: %v", field, err)
			}
			for _, d := range dst {
				*d = f
			}
			return nil
		}
		count := func(dst *uint64) error {
			n, err := strconv.ParseUint(val, 0, 64)
			if err != nil {
				return fmt.Errorf("fault: bad value in %q: %v", field, err)
			}
			*dst = n
			return nil
		}
		// nonzero parses a count whose zero withDefaults would replace
		// with def, so an explicit 0 would silently run with def.
		nonzero := func(dst *uint64, def uint64) error {
			if err := count(dst); err != nil || *dst != 0 {
				return err
			}
			return fmt.Errorf("fault: %q: must be at least 1 (omit it for the default %d)", field, def)
		}
		var err error
		switch strings.ToLower(key) {
		case "bus":
			err = rate(&cfg.BusParityRate)
		case "timeout":
			err = rate(&cfg.BusTimeoutRate)
		case "mem":
			err = rate(&cfg.MemSoftErrorRate)
		case "memunc":
			err = rate(&cfg.MemUncorrectableFraction)
		case "nxm":
			err = rate(&cfg.DMANXMRate)
		case "stall":
			err = rate(&cfg.DMAStallRate)
		case "tag":
			err = rate(&cfg.TagParityRate)
		case "drop":
			err = rate(&cfg.NetDropRate)
		case "all":
			err = rate(&cfg.BusParityRate, &cfg.BusTimeoutRate,
				&cfg.MemSoftErrorRate, &cfg.DMANXMRate,
				&cfg.DMAStallRate, &cfg.TagParityRate)
		case "retries":
			var n uint64
			if err = nonzero(&n, uint64(defaults.MaxRetries)); err == nil {
				cfg.MaxRetries = int(n)
			}
		case "backoff":
			err = nonzero(&cfg.BackoffCycles, defaults.BackoffCycles)
		case "stallcycles":
			err = nonzero(&cfg.DMAStallCycles, defaults.DMAStallCycles)
		case "hold":
			err = nonzero(&cfg.TimeoutHoldCycles, defaults.TimeoutHoldCycles)
		case "start":
			err = count(&cfg.StartCycle)
		case "end":
			err = count(&cfg.EndCycle)
		case "seed":
			err = count(&cfg.Seed)
		case "addrmin":
			var n uint64
			if err = count(&n); err == nil {
				cfg.AddrMin = mbus.Addr(n)
			}
		case "addrmax":
			var n uint64
			if err = count(&n); err == nil {
				cfg.AddrMax = mbus.Addr(n)
			}
		default:
			return Config{}, fmt.Errorf("fault: unknown key %q", key)
		}
		if err != nil {
			return Config{}, err
		}
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

var _ mbus.FaultInjector = (*Plan)(nil)
