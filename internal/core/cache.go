package core

import (
	"fmt"
	"math/bits"

	"firefly/internal/mbus"
	"firefly/internal/obs"
	"firefly/internal/sim"
)

// Standard cache geometries from the paper. Lines are always one 4-byte
// longword: "Each cache is direct mapped, and in the original version of
// the system, contained 4096 four-byte lines" (§5); the CVAX cache has
// 16384 lines.
const (
	MicroVAXLines = 4096
	CVAXLines     = 16384
	LineBytes     = 4
)

// Access is one CPU reference presented to the cache.
type Access struct {
	// Write distinguishes CPU writes from reads.
	Write bool
	// Partial marks a sub-longword write (byte or word on the VAX), which
	// cannot use the Firefly direct write-miss optimization and must fill
	// the line first.
	Partial bool
	// Addr is the referenced byte address.
	Addr mbus.Addr
	// Data is the resulting longword value for writes (the simulator
	// models partial writes as read-modify-write producing Data).
	Data uint32
}

// Stats counts cache activity. Field names follow the measurement
// categories of the paper's Table 2.
type Stats struct {
	Reads  uint64 // CPU read references
	Writes uint64 // CPU write references

	ReadHits  uint64
	WriteHits uint64
	// LocalWriteHits are write hits completed with no bus traffic
	// (non-shared lines under write-back).
	LocalWriteHits uint64
	ReadMisses     uint64
	WriteMisses    uint64

	Fills uint64 // MRead/MReadOwn line loads
	// FillOps and VictimOps count individual bus operations; with
	// one-longword lines they equal Fills and VictimWrites, with W-word
	// lines each fill or write-back issues W operations.
	FillOps   uint64
	VictimOps uint64
	// DirectWriteMisses used the Firefly longword optimization: a single
	// write-through with no fill.
	DirectWriteMisses uint64
	VictimWrites      uint64 // dirty victim write-backs
	// WriteThroughShared counts write-throughs that received MShared (true
	// sharing); WriteThroughClean counts those that did not (the "last
	// sharer" write that reverts a line to write-back).
	WriteThroughShared uint64
	WriteThroughClean  uint64
	Invalidations      uint64 // bus ops this cache issued to invalidate others

	SnoopProbes   uint64 // tag-store probes caused by other agents
	SnoopHits     uint64
	SnoopSupplies uint64 // reads answered from this cache
	SnoopTakes    uint64 // update data absorbed from the bus
	SnoopInvals   uint64 // lines invalidated by snooped ops

	// Fault recovery accounting (all zero on a fault-free machine). The
	// bus counts the faults and retries of this cache's operations
	// (mbus.Bus.PortFaults).
	TagFaults     uint64 // injected tag-store parity errors
	MachineChecks uint64 // uncorrectable faults latched
	Abandoned     uint64 // CPU accesses abandoned after retry exhaustion
}

// BusOps returns the number of MBus operations this cache initiated.
// Direct write misses are not an addend: they are already counted in the
// write-through buckets (they are non-victim MWrites, which is how the
// paper's Table 2 measurement rig categorizes them).
func (s Stats) BusOps() uint64 {
	return s.FillOps + s.VictimOps +
		s.WriteThroughShared + s.WriteThroughClean + s.Invalidations
}

// MissRate returns misses over references.
func (s Stats) MissRate() float64 {
	refs := s.Reads + s.Writes
	if refs == 0 {
		return 0
	}
	return float64(s.ReadMisses+s.WriteMisses) / float64(refs)
}

// sequencer phases for a multi-operation CPU access.
type seqPhase uint8

const (
	seqIdle seqPhase = iota
	// Every other phase waits on a bus operation (AwaitsBus).
	seqVictim
	seqFill
	seqWriteThrough
	seqDirectWrite
)

// TagFaultInjector decides whether a CPU access that hit the cache
// suffers a tag-store parity error. Declared here (not in the fault
// package) so the cache depends only on its own narrow injection point;
// fault.Plan satisfies it structurally.
type TagFaultInjector interface {
	TagFault(addr mbus.Addr) bool
}

// Cache is a direct-mapped snoopy cache attached to one MBus port. It is
// an mbus.Initiator and mbus.TagSnooper. One CPU access may be
// outstanding at a time, mirroring the MicroVAX's single memory interface.
type Cache struct {
	clock     *sim.Clock
	proto     Protocol
	lines     int
	lineWords int // longwords per line (1 on the real Firefly)

	// tags is the tag store the bus probes (mbus.TagStore): tags.Keys[i]
	// is set i's line base address with mbus.KeyValid set exactly while
	// states[i] is valid, so a lookup is one compare and every reader of
	// an address masks the bit off (tagBase). The bus counts probes and
	// latches their cycle in it.
	tags   mbus.TagStore
	states []State
	data   []uint32 // lines*lineWords longwords

	// outstanding CPU access (acc and accIdx are read only while the
	// phase is not idle; a hit does not store them)
	phase    seqPhase
	acc      Access
	accIdx   int
	lastRead uint32
	// multi-word transfer progress
	xferWord   int
	fillBuf    []uint32
	fillShared bool
	// fillPoisoned marks an in-flight fill whose line was claimed for
	// exclusive ownership by a snooped operation (MReadOwn/MInv): the
	// buffered words are dead and the miss restarts when the last word
	// arrives. See snoopFillConflict.
	fillPoisoned bool
	victimBase   mbus.Addr

	// line is the cache's request line into the bus arbiter.
	line mbus.Line

	// fault recovery
	tagFaults    TagFaultInjector // nil: no tag-store parity errors
	machineCheck bool             // latched uncorrectable fault, read by Topaz

	// snoop in progress (between probe and commit)
	snoopIdx  int
	snoopLive bool
	// flushBuf backs SnoopVerdict.Flush without a per-snoop allocation;
	// the bus consumes the verdict before this cache can be probed again,
	// so one buffer per cache suffices.
	flushBuf []mbus.WordFlush
	// doneAt latches the completion cycle of the last bus-borne access;
	// Busy reports true through that cycle so the processor charges the
	// full bus-operation time (the model's N ticks per MBus operation).
	doneAt sim.Cycle

	// tracer is the observability stream (nil = disabled); unit is this
	// cache's processor index in emitted events.
	tracer *obs.Tracer
	unit   int32

	// gen counts changes of any line's tag or coherence state (see
	// Generation).
	gen uint64

	stats Stats
}

// NewCache returns a cache with the given number of one-longword lines,
// the hardware geometry. lines must be a power of two (the hardware
// indexes with address bits).
func NewCache(clock *sim.Clock, proto Protocol, lines int) *Cache {
	return NewCacheGeometry(clock, proto, lines, 1)
}

// NewCacheGeometry returns a cache with lines of lineWords longwords —
// the geometry the paper's footnote weighs and rejects ("A larger line
// would probably have reduced the miss rate considerably, but it would
// have complicated the design of the cache, the MBus, and the storage
// modules"). A W-word line fills and writes back with W sequential MBus
// operations, since the bus moves one longword per operation. Every cache
// on one bus must use the same geometry. Both lines and lineWords must be
// powers of two.
func NewCacheGeometry(clock *sim.Clock, proto Protocol, lines, lineWords int) *Cache {
	if lines <= 0 || lines&(lines-1) != 0 {
		panic(fmt.Sprintf("core: cache lines must be a power of two, got %d", lines))
	}
	if lineWords <= 0 || lineWords&(lineWords-1) != 0 {
		panic(fmt.Sprintf("core: line words must be a power of two, got %d", lineWords))
	}
	return &Cache{
		clock:     clock,
		proto:     proto,
		lines:     lines,
		lineWords: lineWords,
		tags:      mbus.TagStore{Keys: make([]mbus.Addr, lines), Shift: uint(bits.TrailingZeros(uint(lineWords * 4)))},
		states:    make([]State, lines),
		data:      make([]uint32, lines*lineWords),
		fillBuf:   make([]uint32, lineWords),
		flushBuf:  make([]mbus.WordFlush, 0, lineWords),
	}
}

// NewMicroVAXCache returns the 16 KB original Firefly cache.
func NewMicroVAXCache(clock *sim.Clock, proto Protocol) *Cache {
	return NewCache(clock, proto, MicroVAXLines)
}

// SetTracer installs (or, with nil, removes) the observability tracer.
// unit is the processor index used in emitted events. The cache emits
// hit/miss events per CPU reference, a state event for every Figure 3
// arc a line traverses, and completion events for conditional
// write-throughs and victim write-backs.
func (c *Cache) SetTracer(tr *obs.Tracer, unit int) {
	c.tracer = tr
	c.unit = int32(unit)
}

// setState applies a coherence state change, emitting the Figure 3 arc
// when tracing. Every assignment to states[] funnels through here.
func (c *Cache) setState(idx int, next State) {
	if c.tracer != nil && c.states[idx] != next {
		c.tracer.Emit(obs.Event{
			Cycle: uint64(c.clock.Now()),
			Kind:  obs.KindCacheState,
			Unit:  c.unit,
			Addr:  uint32(c.tagBase(idx)),
			A:     uint64(c.states[idx]),
			B:     uint64(next),
			Label: next.String(),
		})
	}
	if c.states[idx] != next {
		c.gen++
		if c.states[idx].Valid() != next.Valid() {
			c.tags.Keys[idx] ^= mbus.KeyValid
		}
	}
	c.states[idx] = next
}

// putTag installs a line's tag, keeping the set's valid bit and moving the
// line generation.
func (c *Cache) putTag(idx int, base mbus.Addr) {
	c.tags.Keys[idx] = base | c.tags.Keys[idx]&mbus.KeyValid
	c.gen++
}

// tagBase returns the base address of the line in set idx.
func (c *Cache) tagBase(idx int) mbus.Addr { return c.tags.Keys[idx] &^ mbus.KeyValid }

// Generation returns a count that changes whenever any line's tag or
// coherence state changes. A caller that has checked residency
// (HitsLocally) may trust the answer while the generation stands still.
func (c *Cache) Generation() uint64 { return c.gen }

// emit sends a simple addr-carrying event when tracing.
func (c *Cache) emit(kind obs.Kind, addr mbus.Addr, a, b uint64) {
	c.tracer.Emit(obs.Event{
		Cycle: uint64(c.clock.Now()),
		Kind:  kind,
		Unit:  c.unit,
		Addr:  uint32(addr),
		A:     a,
		B:     b,
	})
}

// SetTagFaultInjector installs (or, with nil, removes) the injector of
// tag-store parity errors on hits. Faulted bus operations are the bus's
// to retry (mbus.Bus.SetFaultPolicy); the cache sees only the fault that
// spends the budget.
func (c *Cache) SetTagFaultInjector(inj TagFaultInjector) { c.tagFaults = inj }

// MachineCheck reports whether an uncorrectable fault has been latched:
// a bus operation that exhausted its retry budget, or a tag parity error
// on a dirty line. Topaz polls it to offline the processor.
func (c *Cache) MachineCheck() bool { return c.machineCheck }

// ClearMachineCheck acknowledges the latched machine check.
func (c *Cache) ClearMachineCheck() { c.machineCheck = false }

// Protocol returns the coherence protocol the cache runs.
func (c *Cache) Protocol() Protocol { return c.proto }

// Lines returns the cache's line count.
func (c *Cache) Lines() int { return c.lines }

// Stats returns a snapshot of the cache's counters. SnoopProbes is the
// probe count the bus keeps in the tag store.
func (c *Cache) Stats() Stats {
	s := c.stats
	s.SnoopProbes = c.tags.Probes
	return s
}

// ResetStats clears the counters without disturbing cache contents.
func (c *Cache) ResetStats() {
	c.stats = Stats{}
	c.tags.Probes = 0
}

// TagStore implements mbus.TagSnooper: the bus probes the cache's tag
// store directly and calls SnoopProbe only when it may hold the line.
func (c *Cache) TagStore() *mbus.TagStore { return &c.tags }

// LineWords returns the line size in longwords.
func (c *Cache) LineWords() int { return c.lineWords }

// LineBytes returns the line size in bytes.
func (c *Cache) LineBytes() int { return c.lineWords * 4 }

// lineBase returns the address of the line containing addr.
func (c *Cache) lineBase(addr mbus.Addr) mbus.Addr {
	return addr &^ mbus.Addr(c.lineWords*4-1)
}

// index returns addr's set: its line number modulo the set count.
func (c *Cache) index(addr mbus.Addr) int {
	return int(uint32(addr)>>c.tags.Shift) & (c.lines - 1)
}

// wordOff returns addr's longword offset within its line.
func (c *Cache) wordOff(addr mbus.Addr) int {
	return int(uint32(addr)>>2) & (c.lineWords - 1)
}

// word returns the data-store slot for addr within set idx.
func (c *Cache) word(idx int, addr mbus.Addr) *uint32 {
	return &c.data[idx*c.lineWords+c.wordOff(addr)]
}

// lookup returns the set index and whether the line is present.
func (c *Cache) lookup(addr mbus.Addr) (int, bool) {
	idx := c.index(addr)
	return idx, c.tags.Keys[idx] == c.tags.Key(addr)
}

// Contains reports whether addr's line is resident. It is a measurement
// aid for synthetic reference generators and does not touch the counters.
func (c *Cache) Contains(addr mbus.Addr) bool {
	_, hit := c.lookup(addr)
	return hit
}

// LineState returns the coherence state of addr's line (Invalid if the
// set holds a different tag).
func (c *Cache) LineState(addr mbus.Addr) State {
	idx, hit := c.lookup(addr)
	if !hit {
		return Invalid
	}
	return c.states[idx]
}

// PeekWord returns the cached value for addr; ok is false on a miss.
// Measurement aid; no counter effects.
func (c *Cache) PeekWord(addr mbus.Addr) (uint32, bool) {
	idx, hit := c.lookup(addr)
	if !hit {
		return 0, false
	}
	return *c.word(idx, addr), true
}

// ResidentLine returns the line address stored in set idx, if valid.
// Synthetic generators use it to construct guaranteed hits.
func (c *Cache) ResidentLine(idx int) (mbus.Addr, bool) {
	if idx < 0 || idx >= c.lines || c.tags.Keys[idx]&mbus.KeyValid == 0 {
		return 0, false
	}
	return c.tagBase(idx), true
}

// DirtyFraction returns the fraction of valid lines that are dirty — the
// paper's D parameter (0.25 in the MicroVAX simulations).
func (c *Cache) DirtyFraction() float64 {
	valid, dirty := 0, 0
	for _, s := range c.states {
		if s.Valid() {
			valid++
			if s.IsDirty() {
				dirty++
			}
		}
	}
	if valid == 0 {
		return 0
	}
	return float64(dirty) / float64(valid)
}

// ValidLines returns the number of valid lines.
func (c *Cache) ValidLines() int {
	n := 0
	for _, s := range c.states {
		if s.Valid() {
			n++
		}
	}
	return n
}

// Busy reports whether a CPU access is still in progress. An access that
// needed the bus remains busy through its completion cycle.
func (c *Cache) Busy() bool {
	return c.phase != seqIdle || (c.doneAt != 0 && c.clock.Now() <= c.doneAt)
}

// AwaitsBus reports whether a CPU access is outstanding. It always waits
// on a bus operation (a victim write, fill, write-through or direct
// write), which only BusComplete on the cache's port ends; Busy holds
// until then, and through the completion cycle.
func (c *Cache) AwaitsBus() bool { return c.phase != seqIdle }

// LastRead returns the data produced by the most recent completed read.
func (c *Cache) LastRead() uint32 { return c.lastRead }

// HitsLocally reports whether a CPU read or write of each address would
// hit and complete with no bus operation: its line is resident and the
// protocol lets a write hit proceed without one. It touches no counter.
func (c *Cache) HitsLocally(addrs []mbus.Addr) bool {
	for _, a := range addrs {
		idx, hit := c.lookup(a)
		if !hit {
			return false
		}
		if _, needBus := c.proto.WriteHitOp(c.states[idx]); needBus {
			return false
		}
	}
	return true
}

// TagStoreBusyWithin reports whether a snoop probe used the tag store in
// the half-open window (now-window, now] — the conflict test for a CPU
// whose tick spans `window` bus cycles. The bus latches the probe cycle.
func (c *Cache) TagStoreBusyWithin(now sim.Cycle, window int) bool {
	last := c.tags.LastProbed
	return last != 0 && now-last < sim.Cycle(window)
}

// Submit presents a CPU reference. It returns true if the access completed
// immediately (a hit needing no bus work); otherwise the CPU must stall
// until Busy() reports false. Two preconditions, each enforced by a panic:
// no access is in progress (AwaitsBus; the doneAt latch that keeps Busy
// true through a completion cycle does not count), since the MicroVAX
// memory interface has a single outstanding reference; and no snoop
// holds the access's set between probe and commit, since the tag store
// is committed to the bus transaction. The processor guarantees the
// second by stalling while its tag store is probed (cpu.Processor).
func (c *Cache) Submit(acc Access) (done bool) {
	if c.phase != seqIdle {
		panic("core: Submit while access in progress")
	}
	if c.snoopLive && c.snoopIdx == c.index(acc.Addr) {
		panic("core: Submit to a set held by a snoop between probe and commit")
	}
	if acc.Write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	idx, hit := c.lookup(acc.Addr)
	if hit && c.tagFaults != nil && c.tagFaults.TagFault(acc.Addr) {
		hit = c.tagParityFault(idx)
	}
	if hit {
		if !acc.Write {
			c.stats.ReadHits++
			c.lastRead = *c.word(idx, acc.Addr)
			if c.tracer != nil {
				c.emit(obs.KindCacheReadHit, acc.Addr, 0, 0)
				c.emit(obs.KindCacheLoad, acc.Addr, uint64(c.lastRead), 1)
			}
			return true
		}
		c.stats.WriteHits++
		if c.tracer != nil {
			c.emit(obs.KindCacheWriteHit, acc.Addr, 0, 0)
		}
		op, needBus := c.proto.WriteHitOp(c.states[idx])
		if !needBus {
			c.stats.LocalWriteHits++
			*c.word(idx, acc.Addr) = acc.Data
			c.setState(idx, c.proto.AfterWriteHit(c.states[idx], false, false))
			if c.tracer != nil {
				c.emit(obs.KindCacheStore, acc.Addr, uint64(acc.Data), 1)
			}
			return true
		}
		// Conditional write-through (or invalidation) for a shared line.
		// The data store is updated when the bus operation completes, not
		// before: until the write is serialized on the bus, other sharers
		// hold the old value and this cache must supply the same old value
		// if snooped.
		c.phase = seqWriteThrough
		c.acc, c.accIdx = acc, idx
		c.raise(op, acc.Addr, acc.Data)
		return false
	}

	// Miss.
	c.acc, c.accIdx = acc, idx
	if acc.Write {
		c.stats.WriteMisses++
		if c.tracer != nil {
			c.emit(obs.KindCacheWriteMiss, acc.Addr, 0, 0)
		}
	} else {
		c.stats.ReadMisses++
		if c.tracer != nil {
			c.emit(obs.KindCacheReadMiss, acc.Addr, 0, 0)
		}
	}
	if c.states[idx].Valid() && c.proto.NeedsWriteBack(c.states[idx]) {
		c.phase = seqVictim
		c.victimBase = c.tagBase(idx)
		c.xferWord = 0
		c.raiseVictimWord()
		return false
	}
	c.startMissOps()
	return false
}

// startMissOps issues the fill or direct write for the current miss, after
// any victim write has drained.
func (c *Cache) startMissOps() {
	acc := c.acc
	// The direct write-through optimization applies only when the write
	// covers the whole line — i.e. with the hardware's one-longword lines.
	if acc.Write && !acc.Partial && c.lineWords == 1 && c.proto.WriteMissDirect() {
		c.phase = seqDirectWrite
		c.raise(mbus.MWrite, acc.Addr, acc.Data)
		return
	}
	c.phase = seqFill
	c.xferWord = 0
	c.fillShared = false
	c.fillPoisoned = false
	if c.lineWords > 1 {
		// Until the last word arrives the line is in no set, but the bus
		// must still ask this cache about it (snoopFillConflict).
		c.tags.FillKey = c.tags.Key(acc.Addr)
	}
	c.raiseFillWord()
}

func (c *Cache) raise(op mbus.OpKind, addr mbus.Addr, data uint32) {
	c.line.Raise(mbus.Request{Op: op, Addr: addr.Line(), Data: data}, 0)
}

// raiseFillWord requests the next word of the line being filled.
func (c *Cache) raiseFillWord() {
	base := c.lineBase(c.acc.Addr)
	c.raise(c.proto.FillOp(c.acc.Write), base+mbus.Addr(c.xferWord*4), 0)
}

// raiseVictimWord writes back the next word of the victim line.
func (c *Cache) raiseVictimWord() {
	idx := c.accIdx
	addr := c.victimBase + mbus.Addr(c.xferWord*4)
	c.line.Raise(mbus.Request{
		Op:     mbus.MWrite,
		Addr:   addr.Line(),
		Data:   c.data[idx*c.lineWords+c.xferWord],
		Victim: true,
	}, 0)
}

// tagParityFault handles an injected tag-store parity error on a hit.
// On a clean line the tag cannot be trusted but the data is recoverable
// from the rest of the system: the controller invalidates the line and
// the access proceeds as a miss, refetching over the bus (if the clean
// copy had diverged from memory, a dirty owner exists elsewhere and
// supplies the fill — true in every protocol of the suite). On a dirty
// line the cache holds the sole copy of the data, so the error is
// uncorrectable: a machine check latches for Topaz, and the access
// completes on the (in simulation, intact) line — the fault models a
// detected-parity event, not actual corruption, so coherence is
// preserved while software decides the processor's fate.
// The return value is the access's effective hit status.
func (c *Cache) tagParityFault(idx int) (hit bool) {
	c.stats.TagFaults++
	if c.states[idx].IsDirty() {
		c.stats.MachineChecks++
		c.machineCheck = true
		if c.tracer != nil {
			c.emit(obs.KindFaultCacheTag, c.tagBase(idx), 0, 1)
			c.emit(obs.KindMachineCheck, c.tagBase(idx), 2, 0)
		}
		return true
	}
	// The fault event precedes the state event so trace consumers (the
	// coherence checker's arc validator) can attribute the off-protocol
	// transition to Invalid to fault recovery.
	if c.tracer != nil {
		c.emit(obs.KindFaultCacheTag, c.tagBase(idx), 0, 0)
	}
	c.setState(idx, Invalid)
	return false
}

// busFault abandons the CPU access whose bus operation faulted after the
// bus spent its retry budget, and latches a machine check. Nothing was
// serialized — a faulted operation has no architectural effect — so no
// load or store event is emitted and no cache state was installed; the
// machine stays coherent and the processor's fate is software's call
// (Topaz offlines it).
func (c *Cache) busFault(res mbus.Result) {
	c.machineCheck = true
	c.stats.MachineChecks++
	c.stats.Abandoned++
	if c.tracer != nil {
		c.emit(obs.KindMachineCheck, res.Addr, 1, uint64(res.Fault))
	}
	c.tags.FillKey = 0
	c.finish()
}

// BusAttach implements mbus.Initiator.
func (c *Cache) BusAttach(l mbus.Line) { c.line = l }

// BusComplete implements mbus.Initiator.
func (c *Cache) BusComplete(res mbus.Result) {
	if res.Fault != mbus.FaultNone {
		c.busFault(res)
		return
	}
	switch c.phase {
	case seqVictim:
		c.stats.VictimOps++
		c.xferWord++
		if c.xferWord < c.lineWords {
			c.raiseVictimWord()
			return
		}
		c.stats.VictimWrites++
		if c.tracer != nil {
			c.emit(obs.KindCacheWriteBack, c.victimBase, uint64(c.lineWords), 0)
		}
		// The victim slot is now reusable; the line is logically gone.
		c.setState(c.accIdx, Invalid)
		c.startMissOps()

	case seqFill:
		c.stats.FillOps++
		c.fillBuf[c.xferWord] = res.Data
		c.fillShared = c.fillShared || res.Shared
		c.xferWord++
		if c.xferWord < c.lineWords {
			c.raiseFillWord()
			return
		}
		c.tags.FillKey = 0
		if c.fillPoisoned {
			// A snooped operation claimed this line for exclusive ownership
			// mid-fill; the buffered words are dead. Discard them and retry
			// the miss from the start (the bus operations already spent stay
			// counted in FillOps).
			c.startMissOps()
			return
		}
		c.stats.Fills++
		idx := c.accIdx
		c.putTag(idx, c.lineBase(c.acc.Addr))
		copy(c.data[idx*c.lineWords:(idx+1)*c.lineWords], c.fillBuf)
		c.setState(idx, c.proto.AfterFill(c.acc.Write, c.fillShared))
		if !c.acc.Write {
			c.lastRead = *c.word(idx, c.acc.Addr)
			if c.tracer != nil {
				c.emit(obs.KindCacheLoad, c.acc.Addr, uint64(c.lastRead), 0)
			}
			c.finish()
			return
		}
		// Complete the write as a hit on the just-filled line.
		op, needBus := c.proto.WriteHitOp(c.states[idx])
		if !needBus {
			*c.word(idx, c.acc.Addr) = c.acc.Data
			c.setState(idx, c.proto.AfterWriteHit(c.states[idx], false, false))
			if c.tracer != nil {
				c.emit(obs.KindCacheStore, c.acc.Addr, uint64(c.acc.Data), 1)
			}
			c.finish()
			return
		}
		// Shared after fill: write through. The filled (old) value stays in
		// the data store until the write-through is serialized on the bus.
		c.phase = seqWriteThrough
		c.raise(op, c.acc.Addr, c.acc.Data)

	case seqWriteThrough:
		idx := c.accIdx
		switch res.Op {
		case mbus.MWrite, mbus.MUpdate:
			if res.Shared {
				c.stats.WriteThroughShared++
			} else {
				c.stats.WriteThroughClean++
			}
			if c.tracer != nil {
				c.emit(obs.KindCacheWriteThrough, c.acc.Addr, 0, boolArg(res.Shared))
			}
		case mbus.MInv:
			c.stats.Invalidations++
		}
		if !c.states[idx].Valid() {
			// The line died while this operation was pending: another
			// processor's write serialized ahead and the snoop invalidated
			// it. Completing "as a hit" would resurrect the dead line —
			// the written word fresh, every other word stale (the
			// coherence checker's randomized stress caught exactly that
			// under the invalidation protocols with multi-word lines).
			if res.Op.CarriesData() {
				// The write-through itself still happened: memory and any
				// surviving snoopers absorbed the data at serialization.
				// The local copy just stays dead.
				c.finish()
				return
			}
			// An invalidation-based write hit lost its line before its
			// MInv won the bus. The store has not serialized anywhere;
			// redo the access as the write miss it now is.
			c.startMissOps()
			return
		}
		*c.word(idx, c.acc.Addr) = c.acc.Data
		c.setState(idx, c.proto.AfterWriteHit(c.states[idx], true, res.Shared))
		if c.tracer != nil && !res.Op.CarriesData() {
			// An MInv-based write hit: the store serialized with the
			// invalidation broadcast but never put data on the bus, so
			// no KindBusStore was emitted for it.
			c.emit(obs.KindCacheStore, c.acc.Addr, uint64(c.acc.Data), 0)
		}
		c.finish()

	case seqDirectWrite:
		c.stats.DirectWriteMisses++
		if res.Shared {
			c.stats.WriteThroughShared++
		} else {
			c.stats.WriteThroughClean++
		}
		if c.tracer != nil {
			// The Firefly longword optimization: the miss completed as a
			// single write-through with no fill.
			c.emit(obs.KindCacheWriteThrough, c.acc.Addr, 1, boolArg(res.Shared))
		}
		idx := c.accIdx
		c.putTag(idx, c.lineBase(c.acc.Addr))
		*c.word(idx, c.acc.Addr) = c.acc.Data
		c.setState(idx, c.proto.AfterDirectWriteMiss(res.Shared))
		c.finish()

	default:
		panic("core: BusComplete with no operation outstanding")
	}
}

// finish returns the sequencer to idle, latching the completion cycle so
// Busy stays true through it.
func (c *Cache) finish() {
	c.phase = seqIdle
	c.doneAt = c.clock.Now()
}

// SnoopProbe implements mbus.Snooper. The bus has already counted and
// latched the probe in the tag store, and calls this only when the cache
// may hold the line (mbus.TagStore.MayHold): the line is valid in its set
// or, with multi-word lines, being filled.
func (c *Cache) SnoopProbe(op mbus.OpKind, addr mbus.Addr, data uint32) mbus.SnoopVerdict {
	idx, hit := c.lookup(addr)
	if !hit {
		if c.lineWords > 1 && c.phase == seqFill &&
			c.lineBase(addr) == c.lineBase(c.acc.Addr) {
			return c.snoopFillConflict(op, addr, data)
		}
		return mbus.SnoopVerdict{}
	}
	c.stats.SnoopHits++
	action := c.proto.Snoop(c.states[idx], op)
	c.snoopIdx = idx
	c.snoopLive = action.AssertShared // commit arrives only when MShared was driven
	v := mbus.SnoopVerdict{HasLine: action.AssertShared}
	if action.Supply && op.IsRead() {
		v.Supply = true
		v.Data = *c.word(idx, addr)
		c.stats.SnoopSupplies++
	}
	// When the snoop will strip this line of its dirt (Dirty -> clean or
	// invalid), the whole line's contents must reach memory — with
	// one-longword lines that is the single reflected word the hardware
	// put on the bus; with longer lines the flush covers every word.
	if c.states[idx].IsDirty() && !action.Next.IsDirty() {
		base := c.tagBase(idx)
		// The verdict borrows flushBuf: the bus consumes it when the
		// operation completes, before this cache can be probed again.
		c.flushBuf = c.flushBuf[:0]
		for w := 0; w < c.lineWords; w++ {
			c.flushBuf = append(c.flushBuf, mbus.WordFlush{
				Addr: base + mbus.Addr(w*4),
				Data: c.data[idx*c.lineWords+w],
			})
		}
		v.Flush = c.flushBuf
	}
	return v
}

// snoopFillConflict handles a bus operation addressed to the line this
// cache is in the middle of filling. The fill sequencer installs tags only
// when the last word arrives, so the committed-line snoop path cannot see
// the conflict; without this handling a multi-word fill is invisible to
// coherence, and a write serialized between two of its word reads would
// leave an already-buffered word stale — two Shared copies with divergent
// data (the coherence checker's randomized stress found exactly that).
// With one-word lines a fill is a single atomic operation and the window
// does not exist, so the caller gates on lineWords > 1.
//
// The protocol's committed-line reaction to a clean Shared copy
// classifies the response:
//
//   - it would invalidate (an exclusive-ownership claim): the buffered
//     words are dead; poison the fill so the miss restarts when the last
//     word arrives.
//   - it takes data (an update-family write): patch the new word into the
//     fill buffer if that word was already fetched; words not yet fetched
//     will read the post-write value after this operation serializes.
//   - otherwise (a read): assert MShared only — both fills then complete
//     Shared on both sides.
func (c *Cache) snoopFillConflict(op mbus.OpKind, addr mbus.Addr, data uint32) mbus.SnoopVerdict {
	action := c.proto.Snoop(Shared, op)
	if !action.Next.Valid() {
		c.fillPoisoned = true
		c.stats.SnoopInvals++
		return mbus.SnoopVerdict{}
	}
	if action.TakeData && op.CarriesData() {
		if w := c.wordOff(addr); w < c.xferWord {
			c.fillBuf[w] = data
			c.stats.SnoopTakes++
		}
	}
	c.fillShared = true
	// HasLine without snoopLive: the MShared wire is driven, but there is
	// no committed line for SnoopCommit to transition (it no-ops).
	return mbus.SnoopVerdict{HasLine: true}
}

// SnoopCommit implements mbus.Snooper.
func (c *Cache) SnoopCommit(op mbus.OpKind, addr mbus.Addr, data uint32, shared bool) {
	if !c.snoopLive {
		return
	}
	c.snoopLive = false
	idx := c.snoopIdx
	// The line cannot have changed between probe and commit: local writes
	// that could change it either need the (busy) bus or are kept out of
	// the set by Submit's precondition.
	action := c.proto.Snoop(c.states[idx], op)
	if action.TakeData && op.CarriesData() {
		*c.word(idx, addr) = data
		c.stats.SnoopTakes++
	}
	if !action.Next.Valid() && c.states[idx].Valid() {
		c.stats.SnoopInvals++
	}
	c.setState(idx, action.Next)
	if c.phase == seqVictim && idx == c.accIdx && !c.states[idx].IsDirty() {
		// The snooped operation stripped the dirt from (or invalidated) the
		// line this cache is writing back. The snoop flush has already
		// delivered every word to memory, and finishing the write-back would
		// put stale words on the bus AFTER the operation that serialized
		// ahead of it — under an ownership protocol that stale MWrite would
		// clobber the new owner's copy. Abandon the remaining victim
		// operations and start the miss proper. (Our own victim operation
		// cannot be in flight here: a snoop only arrives during another
		// agent's operation, so the victim write is merely raised, not yet
		// granted, and raising the miss's first operation replaces it on
		// the line.)
		c.setState(idx, Invalid)
		c.startMissOps()
	}
}

// boolArg converts a flag to an event argument.
func boolArg(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

var (
	_ mbus.Initiator  = (*Cache)(nil)
	_ mbus.TagSnooper = (*Cache)(nil)
)
