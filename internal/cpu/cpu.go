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
// SP term), plus one more for each later probe that lands in the
// reference's tick boundary cycle, before that snoop commits.
package cpu

import (
	"fmt"
	"math"

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
	case !(v.BaseTPI >= 1) || math.IsInf(v.BaseTPI, 1):
		return fmt.Errorf("cpu: BaseTPI %v must be finite and >= 1", v.BaseTPI)
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

// instr is the instruction in progress. Its compute ticks are split into
// nr+1 slots, one before each reference and the last after them: slot s
// holds chunk ticks, plus one when s < extra. The processor has issued
// done references and has left ticks of slot done to compute; it is at
// an instruction boundary when done == nr and left == 0.
type instr struct {
	kinds        [3]trace.Kind // the drawn references, in issue order
	nr           int
	chunk, extra int
	done, left   int
}

// slot returns the compute ticks of slot s.
func (in *instr) slot(s int) int {
	if s < in.extra {
		return in.chunk + 1
	}
	return in.chunk
}

// boundary reports whether the instruction has retired.
func (in *instr) boundary() bool { return in.done == in.nr && in.left == 0 }

// start splits the drawn instruction's compute ticks into its slots
// (instruction decode, execute, result store around the references) and
// moves to the first slot.
func (in *instr) start(compute int) {
	in.chunk, in.extra = compute/(in.nr+1), compute%(in.nr+1)
	in.done, in.left = 0, in.slot(0)
}

// Processor is one Firefly CPU. The machine calls Tick on its tick
// boundaries.
type Processor struct {
	id    int
	clock *sim.Clock
	v     Variant
	cache *core.Cache
	src   trace.Source
	rng   *sim.Rand

	// v's probabilities, prepared for rng.Hit.
	ir, dr, dw, onChip, partial sim.Chance

	tpiCarry     float64
	in           instr
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
	return &Processor{
		id:    id,
		clock: clock,
		v:     v,
		cache: cache,
		src:   src,
		rng:   sim.NewRand(seed ^ uint64(id)*0x9e3779b9),

		ir:      sim.NewChance(v.IR),
		dr:      sim.NewChance(v.DR),
		dw:      sim.NewChance(v.DW),
		onChip:  sim.NewChance(v.OnChipHitRate),
		partial: sim.NewChance(v.PartialWriteFraction),
	}
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
// wrote nothing the bus's or a device's NextEvent reads.
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

// Tick runs the processor's action for the current tick boundary. It
// does not test the clock, so the caller must call it only on a boundary
// (a multiple of the variant's TickCycles), after the bus and the devices
// have stepped that cycle. A halted processor does nothing. Tick reports
// whether the tick stayed local: it left no cache access outstanding (a
// miss or a write-through raises work for the next bus cycle), and the
// instruction hook, if one ran, reported local. Machine.Run calls Tick only at the boundaries
// where the processor is due (see ComputeAhead), on busy and quiet bus
// cycles alike (not while parked on a bus operation, see RunPrivate),
// and keeps a window of processor-only ticks open only while every tick
// stays local.
func (p *Processor) Tick() (local bool) {
	if p.halted {
		return true
	}
	return p.tick()
}

// ComputeAhead returns how many of the processor's next ticks are pure
// compute: ticks that only count down the current compute slot and read
// nothing outside the processor (no clock, cache, source or hook). It is 0
// while halted, while waiting on the cache, at a reference and at an
// instruction boundary.
//
// Machine.Run elides these ticks for the whole call and applies them
// with RunPrivate when the processor is next due or when Run returns.
// That is exact because a compute tick commutes with everything else
// that happens during Run: nothing outside the processor reads or writes
// its instruction record, its waiting flag or its tick and instruction
// counters.
// Interrupt only queues and counts, for the processor's own hook to drain
// at a real tick; SetSource changes only what the next reference reads;
// Halt comes only from the processor's own hook or from outside Run; and
// only a waiting processor, which has no compute ahead, reads Busy.
func (p *Processor) ComputeAhead() int {
	if p.halted || p.waiting {
		return 0
	}
	return p.in.left
}

// Waiting reports whether the processor is stalled on an outstanding
// cache access.
func (p *Processor) Waiting() bool { return p.waiting }

// RunPrivate applies the processor's next n ticks alone, with exactly
// the effect of n calls to Tick under these conditions, which the caller
// must have proved: the processor is neither halted nor waiting; its
// instruction hook, at each boundary it crosses, would only count the
// boundary (it writes nothing the processor or any other component
// reads before the caller hands the count back); every reference its
// source gives hits in its cache with no bus operation; and no snoop
// probe touches its tag store in those ticks. It returns the instruction
// boundaries crossed, where Tick would have called the hook. An
// instruction whose ticks all fit in the run issues its references back
// to back and retires; compute ticks are applied in bulk, and a run that
// ends inside an instruction leaves its record where the ticks would.
//
// With n <= ComputeAhead() the conditions hold trivially: the ticks are
// one compute stretch, crossing no boundary and making no reference, so
// RunPrivate(n) applies n elided compute ticks at once (Machine.Run's
// catch-up before a due tick and on return).
//
// A waiting processor whose cache stays Busy through the n ticks only
// stalls, and RunPrivate counts n stall ticks (Machine.Run's catch-up of
// a processor parked on a bus operation).
func (p *Processor) RunPrivate(n int) (boundaries uint64) {
	p.stats.Ticks += uint64(n)
	if p.waiting {
		p.stats.StallTicks += uint64(n)
		return 0
	}
	in := &p.in
	for n > 0 {
		if in.boundary() {
			boundaries++
			compute := p.draw()
			if ticks := compute + in.nr; ticks <= n {
				n -= ticks
				for _, k := range in.kinds[:in.nr] {
					p.private(k)
				}
				in.done = in.nr
				p.retire()
				continue
			}
			in.start(compute)
		}
		if in.left > 0 {
			k := min(n, in.left)
			n -= k
			p.compute(k)
			continue
		}
		n--
		p.probeStalled = false
		p.private(in.kinds[in.done])
		p.advance()
	}
	return boundaries
}

// private issues a reference of a private run, which must hit.
func (p *Processor) private(kind trace.Kind) {
	if !p.access(kind) {
		panic("cpu: private reference missed its cache")
	}
}

// compute counts n ticks, at most what remains, off the current compute
// slot, retiring the instruction when that was its last slot.
func (p *Processor) compute(n int) {
	p.in.left -= n
	if p.in.boundary() {
		p.retire()
	}
}

// advance moves past the reference just issued, to the next slot,
// retiring the instruction when that slot is the empty last one.
func (p *Processor) advance() {
	in := &p.in
	in.done++
	in.left = in.slot(in.done)
	if in.boundary() {
		p.retire()
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
	if p.in.boundary() {
		if p.instrHook != nil {
			local = p.instrHook(p)
			if p.halted {
				return local
			}
		}
		p.in.start(p.draw())
	}

	if p.in.left > 0 {
		p.compute(1)
		return local
	}

	// A reference. Check tag-store interference first: a snoop probe in
	// this tick's window costs one tick (the SP stall, once per
	// reference), and one in this very cycle, whose commit is still to
	// come, stalls the reference again (Cache.Submit's precondition).
	window := p.v.TickCycles
	if p.probeStalled {
		window = 1
	}
	if p.cache.TagStoreBusyWithin(p.clock.Now(), window) {
		p.probeStalled = true
		p.stats.ProbeStalls++
		return local
	}
	p.probeStalled = false
	done := p.access(p.in.kinds[p.in.done])
	p.advance()
	return done && local
}

// access runs one reference: it draws the address from the source, lets
// the on-chip cache absorb an eligible read, and submits the rest to the
// board cache. It reports whether the access completed; when it did not,
// the processor waits on the cache.
func (p *Processor) access(kind trace.Kind) (done bool) {
	ref := p.src.Next(kind)

	onChipEligible := p.v.OnChipICache &&
		(kind == trace.InstrRead || (p.v.OnChipDCache && kind == trace.DataRead))
	if onChipEligible && p.rng.Hit(p.onChip) {
		p.stats.OnChipHits++
		return true
	}

	acc := core.Access{
		Write:   kind.IsWrite(),
		Partial: ref.Partial || (kind.IsWrite() && p.rng.Hit(p.partial)),
		Addr:    ref.Addr,
		Data:    ref.Data,
	}
	if acc.Write {
		p.stats.Writes++
	} else {
		p.stats.Reads++
	}
	done = p.cache.Submit(acc)
	p.waiting = !done
	return done
}

func (p *Processor) retire() {
	p.stats.Instructions++
}

// draw draws the next instruction's references into the record and
// returns its compute ticks. A fractional accumulator keeps the long-run
// base ticks per instruction equal to BaseTPI without per-instruction
// rounding loss. Validate's finite BaseTPI >= 1 gives every instruction
// at least one tick.
func (p *Processor) draw() (compute int) {
	in := &p.in
	// Each kind is stored at the next free place and kept by counting it,
	// so no branch turns on a draw (a 40% write draw predicts badly).
	nr := 0
	in.kinds[nr] = trace.InstrRead
	if p.rng.Hit(p.ir) {
		nr++
	}
	in.kinds[nr] = trace.DataRead
	if p.rng.Hit(p.dr) {
		nr++
	}
	in.kinds[nr] = trace.DataWrite
	if p.rng.Hit(p.dw) {
		nr++
	}
	in.nr = nr

	p.tpiCarry += p.v.BaseTPI
	baseTicks := int(p.tpiCarry)
	p.tpiCarry -= float64(baseTicks)
	return max(baseTicks-nr, 0)
}
