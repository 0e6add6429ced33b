// Package cpu models the Firefly's processors as stochastic reference
// engines. The paper's own analysis (§5.2) reduces the MicroVAX 78032 to
// architectural constants — 11.9 ticks per instruction against
// no-wait-state memory, and the Emer & Clark per-instruction reference mix
// of .95 instruction reads, .78 data reads, and .40 data writes — and the
// processor model implements exactly that abstraction: every result in the
// paper depends on the reference stream's statistics, not on VAX
// instruction semantics.
//
// Timing: a processor acts once per tick (two 100 ns bus cycles for the
// MicroVAX, one for the CVAX). Each instruction consumes its base ticks;
// cache misses and write-throughs stall the processor for the full MBus
// operation (the model's N ticks plus queueing), and a tag-store probe by
// another cache's bus operation in the same tick costs one extra tick (the
// SP term).
package cpu

import (
	"fmt"

	"firefly/internal/core"
	"firefly/internal/sim"
	"firefly/internal/trace"
)

// Variant describes a processor implementation.
type Variant struct {
	// Name identifies the variant in reports.
	Name string
	// TickCycles is the processor tick length in 100 ns bus cycles:
	// 2 for the MicroVAX 78032 (200 ns ticks), 1 for the CVAX 78034.
	TickCycles int
	// BaseTPI is ticks per instruction with no-wait-state memory.
	BaseTPI float64
	// IR, DR, DW are the per-instruction reference probabilities.
	IR, DR, DW float64
	// OnChipICache models the CVAX's 1 KB on-chip cache, which the
	// Firefly configures "to store only instruction references, not data"
	// to simplify coherence (§5).
	OnChipICache bool
	// OnChipHitRate is the fraction of instruction reads absorbed on-chip.
	OnChipHitRate float64
	// OnChipDCache lets the on-chip cache absorb data reads as well — the
	// configuration the Firefly designers rejected ("we have chosen to
	// configure that cache to store only instruction references, not
	// data", §5). The ablation measures only the performance the Firefly
	// gave up; the coherence hazard that motivated the rejection (the
	// snooping hardware cannot see on-chip data) is exactly why this knob
	// is unsafe on real hardware.
	OnChipDCache bool
	// PartialWriteFraction is the fraction of writes that are sub-longword
	// and therefore cannot use the direct write-miss optimization. The
	// paper notes "most writes are to aligned (32-bit) longwords".
	PartialWriteFraction float64
}

// MicroVAX78032 returns the original Firefly processor: 200 ns ticks,
// 11.9 TPI, no on-chip cache.
func MicroVAX78032() Variant {
	return Variant{
		Name:       "MicroVAX 78032",
		TickCycles: 2,
		BaseTPI:    11.9,
		IR:         0.95, DR: 0.78, DW: 0.40,
	}
}

// CVAX78034 returns the second-version processor: 100 ns ticks, a modestly
// better base TPI, and the on-chip instruction-only cache. The BaseTPI and
// on-chip hit rate are calibrated so a CVAX Firefly delivers the paper's
// observed 2.0-2.5x speedup over the MicroVAX version.
func CVAX78034() Variant {
	return Variant{
		Name:       "CVAX 78034",
		TickCycles: 1,
		BaseTPI:    10.0,
		IR:         0.95, DR: 0.78, DW: 0.40,
		OnChipICache:  true,
		OnChipHitRate: 0.75,
	}
}

// Validate checks the variant for plausibility.
func (v Variant) Validate() error {
	switch {
	case v.TickCycles < 1:
		return fmt.Errorf("cpu: TickCycles %d must be >= 1", v.TickCycles)
	case v.BaseTPI < 1:
		return fmt.Errorf("cpu: BaseTPI %v must be >= 1", v.BaseTPI)
	case v.IR < 0 || v.DR < 0 || v.DW < 0:
		return fmt.Errorf("cpu: negative reference probabilities")
	case v.IR > 1 || v.DR > 1 || v.DW > 1:
		return fmt.Errorf("cpu: reference probabilities above 1 unsupported")
	case v.OnChipHitRate < 0 || v.OnChipHitRate > 1:
		return fmt.Errorf("cpu: OnChipHitRate %v out of [0,1]", v.OnChipHitRate)
	case v.PartialWriteFraction < 0 || v.PartialWriteFraction > 1:
		return fmt.Errorf("cpu: PartialWriteFraction %v out of [0,1]", v.PartialWriteFraction)
	}
	return nil
}

// TR returns the variant's mean references per instruction.
func (v Variant) TR() float64 { return v.IR + v.DR + v.DW }

// Stats counts processor activity.
type Stats struct {
	Instructions uint64
	Ticks        uint64 // total processor ticks elapsed
	StallTicks   uint64 // ticks spent waiting on the cache/bus
	ProbeStalls  uint64 // ticks lost to tag-store snoop interference
	Reads        uint64 // read references presented to the board cache
	Writes       uint64 // write references presented to the board cache
	OnChipHits   uint64 // instruction reads absorbed by the on-chip cache
	Interrupts   uint64 // interprocessor interrupts received
}

// Refs returns total references presented to the board cache.
func (s Stats) Refs() uint64 { return s.Reads + s.Writes }

// TPI returns achieved ticks per instruction.
func (s Stats) TPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Ticks) / float64(s.Instructions)
}

// instruction step kinds.
type stepKind uint8

const (
	stepCompute stepKind = iota
	stepRef
)

type step struct {
	kind    stepKind
	refKind trace.Kind
	compute int
}

// Processor is one Firefly CPU. The machine steps it once per bus cycle;
// it acts on its tick boundaries.
type Processor struct {
	id    int
	clock *sim.Clock
	v     Variant
	cache *core.Cache
	src   trace.Source
	// tickMask is TickCycles-1 when TickCycles is a power of two (both
	// hardware variants: 1 and 2), letting the per-cycle tick-boundary
	// test be a mask instead of a 64-bit modulo; -1 disables the fast
	// path.
	tickMask int64
	rng      *sim.Rand

	tpiCarry     float64
	queue        []step
	qhead        int // queue[qhead:] is the unconsumed tail; indexing instead of re-slicing keeps the buffer's capacity reusable
	waiting      bool
	probeStalled bool
	halted       bool

	instrHook func(p *Processor) (local bool)

	pendingInts []int

	stats Stats
}

// New returns a processor bound to its cache and reference source.
func New(id int, clock *sim.Clock, v Variant, cache *core.Cache, src trace.Source, seed uint64) *Processor {
	if err := v.Validate(); err != nil {
		panic(err)
	}
	if cache == nil {
		panic("cpu: processor needs a cache")
	}
	p := &Processor{
		id:       id,
		clock:    clock,
		v:        v,
		cache:    cache,
		src:      src,
		tickMask: -1,
		rng:      sim.NewRand(seed ^ uint64(id)*0x9e3779b9),
	}
	if v.TickCycles&(v.TickCycles-1) == 0 {
		p.tickMask = int64(v.TickCycles - 1)
	}
	return p
}

// ID returns the processor number.
func (p *Processor) ID() int { return p.id }

// Variant returns the processor's implementation parameters.
func (p *Processor) Variant() Variant { return p.v }

// Cache returns the processor's board cache.
func (p *Processor) Cache() *core.Cache { return p.cache }

// Stats returns a snapshot of the processor counters.
func (p *Processor) Stats() Stats { return p.stats }

// ResetStats clears the counters.
func (p *Processor) ResetStats() { p.stats = Stats{} }

// SetSource changes the reference source (a context switch at the Topaz
// layer). Takes effect at the next reference.
func (p *Processor) SetSource(s trace.Source) {
	p.src = s
}

// Source returns the current reference source.
func (p *Processor) Source() trace.Source { return p.src }

// SetInstrHook installs a callback invoked at every instruction boundary,
// before the next instruction begins. The Topaz scheduler uses it for
// quantum accounting and context switching. It reports local when it
// wrote nothing the bus's, a cache's or a device's NextEvent reads.
func (p *Processor) SetInstrHook(fn func(*Processor) (local bool)) { p.instrHook = fn }

// Halt stops the processor; Resume restarts it. A halted processor
// consumes no ticks.
func (p *Processor) Halt() { p.halted = true }

func (p *Processor) Resume() { p.halted = false }

// Halted reports whether the processor is halted.
func (p *Processor) Halted() bool { return p.halted }

// Interrupt implements mbus.InterruptSink.
func (p *Processor) Interrupt(from int) {
	p.pendingInts = append(p.pendingInts, from)
	p.stats.Interrupts++
}

// TakeInterrupts drains and returns pending interprocessor interrupts.
func (p *Processor) TakeInterrupts() []int {
	ints := p.pendingInts
	p.pendingInts = nil
	return ints
}

// Step advances the processor by one bus cycle. It acts only on its tick
// boundaries; the machine must call Step exactly once per cycle, after the
// bus has been stepped.
func (p *Processor) Step() {
	if p.halted {
		return
	}
	if p.tickMask >= 0 {
		if int64(p.clock.Now())&p.tickMask != 0 {
			return
		}
	} else if uint64(p.clock.Now())%uint64(p.v.TickCycles) != 0 {
		return
	}
	p.tick()
}

// Tick runs the processor's action for the current tick boundary; unlike
// Step it does not test the clock, so the caller must call it only on a
// boundary (a multiple of the variant's TickCycles). A halted processor
// does nothing. Tick reports whether the tick stayed local: it left no
// cache access outstanding (a miss, a write-through or a deferred access
// raises work for the next bus cycle), and the instruction hook, if one
// ran, reported local. The machine's run loop keeps ticking only the
// processors while every tick stays local, and elides compute ticks with
// SkipCompute.
func (p *Processor) Tick() (local bool) {
	if p.halted {
		return true
	}
	return p.tick()
}

// ComputeAhead returns how many of the processor's next ticks are pure
// compute: ticks that only count down the current compute step and read
// nothing outside the processor (no clock, cache, source or hook). It is 0
// while halted, while waiting on the cache, at a reference step and at an
// instruction boundary.
func (p *Processor) ComputeAhead() int {
	if p.halted || p.waiting || p.qhead == len(p.queue) || p.queue[p.qhead].kind != stepCompute {
		return 0
	}
	return p.queue[p.qhead].compute
}

// SkipCompute applies n elided compute ticks, n <= ComputeAhead(), in one
// go, with exactly the effect of n calls to Tick.
func (p *Processor) SkipCompute(n int) {
	if n == 0 {
		return
	}
	p.stats.Ticks += uint64(n)
	st := &p.queue[p.qhead]
	st.compute -= n
	if st.compute == 0 {
		p.qhead++
		if p.qhead == len(p.queue) {
			p.retire()
		}
	}
}

func (p *Processor) tick() (local bool) {
	p.stats.Ticks++

	if p.waiting {
		if p.cache.Busy() {
			p.stats.StallTicks++
			return true
		}
		p.waiting = false
		// The completed reference already consumed its access tick at
		// submission; this tick proceeds with the next step.
	}

	local = true
	if p.qhead == len(p.queue) {
		if p.instrHook != nil {
			local = p.instrHook(p)
			if p.halted {
				return local
			}
		}
		p.buildInstruction()
	}

	st := &p.queue[p.qhead]
	if st.kind == stepCompute {
		st.compute--
		if st.compute <= 0 {
			p.qhead++
			if p.qhead == len(p.queue) {
				p.retire()
			}
		}
		return local
	}

	// A reference step. Check tag-store interference first: a snoop probe
	// in this tick's window costs one tick (once per reference).
	if !p.probeStalled && p.cache.TagStoreBusyWithin(p.clock.Now(), p.v.TickCycles) {
		p.probeStalled = true
		p.stats.ProbeStalls++
		return local
	}
	p.probeStalled = false

	ref := p.src.Next(st.refKind)
	p.qhead++

	onChipEligible := p.v.OnChipICache &&
		(st.refKind == trace.InstrRead || (p.v.OnChipDCache && st.refKind == trace.DataRead))
	if onChipEligible && p.rng.Bool(p.v.OnChipHitRate) {
		p.stats.OnChipHits++
		if p.qhead == len(p.queue) {
			p.retire()
		}
		return local
	}

	acc := core.Access{
		Write:   st.refKind.IsWrite(),
		Partial: ref.Partial || (st.refKind.IsWrite() && p.rng.Bool(p.v.PartialWriteFraction)),
		Addr:    ref.Addr,
		Data:    ref.Data,
	}
	if acc.Write {
		p.stats.Writes++
	} else {
		p.stats.Reads++
	}
	if !p.cache.Submit(acc) {
		p.waiting = true
		local = false
	}
	if p.qhead == len(p.queue) {
		p.retire()
	}
	return local
}

func (p *Processor) retire() {
	p.stats.Instructions++
}

// buildInstruction assembles the step queue for one instruction: the
// drawn references interleaved with compute ticks. A fractional
// accumulator keeps the long-run base ticks per instruction equal to
// BaseTPI without per-instruction rounding loss.
func (p *Processor) buildInstruction() {
	// refs is a fixed-size buffer: at most one reference per kind. (An
	// appended slice here allocated once per instruction — the dominant
	// allocation of the whole cycle loop.)
	var refs [3]trace.Kind
	nr := 0
	if p.rng.Bool(p.v.IR) {
		refs[nr] = trace.InstrRead
		nr++
	}
	if p.rng.Bool(p.v.DR) {
		refs[nr] = trace.DataRead
		nr++
	}
	if p.rng.Bool(p.v.DW) {
		refs[nr] = trace.DataWrite
		nr++
	}

	p.tpiCarry += p.v.BaseTPI
	baseTicks := int(p.tpiCarry)
	p.tpiCarry -= float64(baseTicks)

	compute := baseTicks - nr
	if compute < 0 {
		compute = 0
	}

	// Interleave: a compute chunk before each reference and the remainder
	// after the last (instruction decode, execute, result store).
	slots := nr + 1
	chunk := compute / slots
	extra := compute % slots
	p.queue = p.queue[:0]
	p.qhead = 0
	push := func(n int) {
		if n > 0 {
			p.queue = append(p.queue, step{kind: stepCompute, compute: n})
		}
	}
	for i, k := range refs[:nr] {
		n := chunk
		if i < extra {
			n++
		}
		push(n)
		p.queue = append(p.queue, step{kind: stepRef, refKind: k})
	}
	n := chunk
	if nr < extra {
		n++
	}
	push(n)
	if len(p.queue) == 0 {
		// Zero-reference instruction with zero compute (possible only with
		// degenerate BaseTPI): retire immediately next tick.
		p.queue = append(p.queue, step{kind: stepCompute, compute: 1})
	}
}
