// Package mbus simulates the Firefly MBus: the dedicated memory bus over
// which per-processor caches and the storage modules communicate.
//
// The hardware MBus (paper §5, Figure 4) runs at 10 MHz and supports one
// four-byte transfer every 400 ns — four 100 ns cycles per operation:
//
//	cycle 1: arbitration; the winner places the address and operation
//	cycle 2: write data (MWrite); all other caches probe their tag stores
//	cycle 3: caches holding the line assert the wired-OR MShared signal
//	cycle 4: read data, supplied by the holding caches (memory inhibited)
//	         when MShared was asserted, by the storage modules otherwise
//
// The real bus has exactly two operations, MRead and MWrite. The simulated
// bus additionally carries MReadOwn, MUpdate, and MInv so that the
// invalidation- and ownership-based baseline protocols from the Archibald &
// Baer survey (which the paper contrasts the Firefly protocol against) can
// be evaluated over identical bus timing. Every operation, including the
// address-only MInv, occupies the full four cycles; this matches the
// fixed-length MBus transaction framing and keeps protocol comparisons on
// equal footing.
//
// The cycle-2 probe occupies every other cache's tag store, which is the
// paper's SP slowdown, so every operation is counted and latched in each
// such tag store (TagStore). Only the caches that hold the line drive
// MShared or change state, and the bus calls SnoopProbe only on the
// caches whose tag store may hold it.
package mbus

import (
	"fmt"
	"math/bits"

	"firefly/internal/obs"
	"firefly/internal/sim"
)

// Addr is a physical byte address. The original Firefly had a 24-bit
// physical address space (16 MB); the CVAX version extends it to 27 bits
// (128 MB). Alignment to the 4-byte line is enforced by Line.
type Addr uint32

// Line returns the address of the 4-byte cache line containing a.
func (a Addr) Line() Addr { return a &^ 3 }

// String formats the address in hex.
func (a Addr) String() string { return fmt.Sprintf("%#07x", uint32(a)) }

// OpKind identifies a bus operation.
type OpKind uint8

const (
	// MRead fetches one 4-byte word. Other caches holding the word assert
	// MShared and supply the data in place of memory.
	MRead OpKind = iota
	// MWrite sends one 4-byte word to main memory. Other caches holding
	// the word take the data (update) and assert MShared. Used for victim
	// write-back and for the Firefly protocol's conditional write-through.
	MWrite
	// MReadOwn is a read with intent to modify: holders invalidate rather
	// than keep an updated copy. Not a real MBus operation; used by the
	// invalidation baselines (Berkeley, MESI).
	MReadOwn
	// MUpdate is a cache-to-cache update that does NOT write main memory,
	// as in the Xerox Dragon protocol. Not a real MBus operation.
	MUpdate
	// MInv is an address-only invalidation broadcast. Not a real MBus
	// operation; used by write-hit invalidations in the baselines.
	MInv

	numOpKinds = 5
)

// String returns the operation mnemonic.
func (k OpKind) String() string {
	switch k {
	case MRead:
		return "MRead"
	case MWrite:
		return "MWrite"
	case MReadOwn:
		return "MReadOwn"
	case MUpdate:
		return "MUpdate"
	case MInv:
		return "MInv"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// IsRead reports whether the operation returns data to the initiator.
func (k OpKind) IsRead() bool { return k == MRead || k == MReadOwn }

// CarriesData reports whether the initiator drives data in cycle 2.
func (k OpKind) CarriesData() bool { return k == MWrite || k == MUpdate }

// WritesMemory reports whether the storage modules absorb the data.
func (k OpKind) WritesMemory() bool { return k == MWrite }

// OpCycles is the length of every MBus operation in bus cycles.
const OpCycles = 4

// Request is a bus operation an initiator wants performed.
type Request struct {
	Op   OpKind
	Addr Addr
	Data uint32 // valid when Op.CarriesData()
	// Victim marks an MWrite that writes back an evicted dirty line rather
	// than serializing a new CPU store. The distinction is observational
	// only (it flows into the KindBusStore event): a victim's data must
	// equal the current coherent value, which the coherence oracle
	// cross-checks, while a write-through defines a new one.
	Victim bool
}

// FaultKind classifies a bus or storage fault delivered with a Result.
type FaultKind uint8

const (
	// FaultNone: the operation completed normally.
	FaultNone FaultKind = iota
	// FaultParity: an address or data parity error was detected on the
	// operation. The operation had no architectural effect.
	FaultParity
	// FaultTimeout: no slave responded and the bus watchdog expired. The
	// operation had no architectural effect and held the bus for the
	// watchdog window beyond its normal four cycles.
	FaultTimeout
	// FaultECC: the storage modules detected an uncorrectable error in
	// the read data. The operation ran normally on the bus (snoops and
	// all) but the delivered data is unusable; soft errors are transient,
	// so a retry re-reads the word.
	FaultECC
)

// String returns the fault name.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultParity:
		return "parity"
	case FaultTimeout:
		return "timeout"
	case FaultECC:
		return "ecc"
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// Result is delivered to the initiator on the final cycle of its operation.
type Result struct {
	Op            OpKind
	Addr          Addr
	Data          uint32 // read data for IsRead ops
	Shared        bool   // MShared was asserted during cycle 3
	CacheSupplied bool   // a cache, not memory, supplied the read data
	// Fault, when not FaultNone, marks the operation as failed: Data is
	// invalid and (for FaultParity/FaultTimeout) the operation had no
	// architectural effect. The bus has already spent the operation's
	// retry budget (Bus.SetFaultPolicy), so the initiator abandons it.
	Fault FaultKind
	Done  sim.Cycle
}

// Initiator is an agent that can request bus operations (a cache, or the
// DMA path of the I/O system). As on the MBus, it has a request line into
// the arbiter: it raises the line with the operation it wants, and the
// bus drops the line when it grants the operation.
type Initiator interface {
	// BusAttach hands the agent its request line; Attach calls it once.
	BusAttach(Line)
	// BusComplete delivers the result on the operation's final cycle:
	// once per raised operation, clean or, after the bus has retried it
	// up to its budget (Bus.SetFaultPolicy), with its last fault. A
	// retried attempt delivers nothing.
	BusComplete(Result)
}

// Line is an initiator's request line into the arbiter, handed out by
// Attach.
type Line struct {
	bus  *Bus
	port int
}

// Port returns the line's port number.
func (l Line) Port() int { return l.port }

// Raise raises the line with req, to arbitrate from cycle at on (at or
// before the current cycle: from the next arbitration). The line stays up
// until the bus grants req; raising it again before then replaces the
// request and its cycle.
func (l Line) Raise(req Request, at sim.Cycle) {
	b, w, bit := l.bus, l.port>>6, uint64(1)<<(l.port&63)
	p := &b.ports[l.port]
	p.req, p.at = req, at
	b.raised[w] |= bit
	b.backoff[w] &^= bit
	if at > b.clock.Now() {
		b.backoff[w] |= bit
	}
}

// Lines is a set of request lines, one bit per port: port p is bit p%64
// of word p/64. A bus of up to 64 ports needs one word.
type Lines []uint64

// Has reports whether port p is in the set.
func (s Lines) Has(p int) bool { return p >= 0 && p>>6 < len(s) && s[p>>6]&(1<<(p&63)) != 0 }

// Next returns the lowest port in the set at or above from (from >= 0),
// or -1.
func (s Lines) Next(from int) int {
	w := from >> 6
	if w >= len(s) {
		return -1
	}
	word := s[w] &^ (1<<(from&63) - 1)
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		if w++; w == len(s) {
			return -1
		}
		word = s[w]
	}
}

func (s Lines) clear(p int) { s[p>>6] &^= 1 << (p & 63) }

// SnoopVerdict is a snooper's response to an address probe. A snooper
// that does not hold the line answers the zero verdict; the bus keeps only
// the non-zero verdicts of an operation.
type SnoopVerdict struct {
	// HasLine reports whether the snooper holds the addressed line; it
	// drives the MShared signal.
	HasLine bool
	// Supply indicates the snooper will place read data on the bus during
	// cycle 4 (memory inhibited).
	Supply bool
	// Data is the supplied word (valid when Supply).
	Data uint32
	// MemWrite asks the storage modules to absorb the supplied data as it
	// passes on the bus ("reflection"). The Firefly and Berkeley protocols
	// never set it; MESI-style baselines use it when a modified line is
	// flushed in response to a snooped read.
	MemWrite bool
	// Flush writes additional words to memory when the operation
	// completes. A cache with multi-word lines uses it when a snoop
	// transitions a dirty line to a clean (or invalid) state: the whole
	// line's contents must reach memory, not just the snooped word. The
	// flush is not charged bus cycles — a modeling simplification for the
	// line-size ablation, documented in DESIGN.md.
	Flush []WordFlush
}

// WordFlush is one word written to memory as a side effect of a snoop.
type WordFlush struct {
	Addr Addr
	Data uint32
}

// Snooper watches the bus and participates in coherence. Every cache is a
// snooper; the probe in cycle 2 occupies the snooper's tag store for that
// cycle, which is the source of the paper's "tag store probes by other
// caches" (SP) slowdown term. Every operation probes the tag store of
// every snooper but its initiator, yet only a snooper that holds the line
// has anything to answer: one that exposes its tag store (TagSnooper) has
// the probe counted and latched there by the bus, and is asked only when
// it may hold the line.
type Snooper interface {
	// SnoopProbe is called in cycle 2 of an operation initiated by
	// another agent: on every such operation for a plain Snooper, and
	// only on the operations whose line a TagSnooper may hold (TagStore).
	// It answers exactly, whether or not the snooper holds the line.
	SnoopProbe(op OpKind, addr Addr, data uint32) SnoopVerdict
	// SnoopCommit is called in cycle 3 with the resolved MShared value so
	// the snooper can apply its protocol's state change (take update data,
	// invalidate, change ownership).
	SnoopCommit(op OpKind, addr Addr, data uint32, shared bool)
}

// TagSnooper is an optional Snooper extension for an agent whose tag
// store the bus may read. The bus type-asserts for it at Attach, the same
// way AttachMemory detects ECCMemory.
type TagSnooper interface {
	Snooper
	// TagStore returns the snooper's tag store. The bus keeps the pointer
	// for the life of the port.
	TagStore() *TagStore
}

// KeyValid is the bit of a TagStore key that marks the line valid. Line
// base addresses are longword-aligned, so bit 0 is free.
const KeyValid Addr = 1

// TagStore is a snooper's tag store as the bus sees it: one key per set,
// plus the probe count and latch, which the bus keeps. The snooper's own
// references read LastProbed to take the SP stall.
type TagStore struct {
	// Keys holds one key per set: the base address of the resident line,
	// with KeyValid set while the line is valid. Its length is a power of
	// two.
	Keys []Addr
	// Shift is log2 of the line size in bytes: a line's set is
	// addr>>Shift modulo len(Keys).
	Shift uint
	// FillKey is the key of a line being filled word by word (0: none).
	// Such a line is not yet in Keys, but an operation on it must reach
	// the snooper's SnoopProbe.
	FillKey Addr
	// Probes counts the probes of this tag store; LastProbed is the cycle
	// of the latest (0 before any).
	Probes     uint64
	LastProbed sim.Cycle
}

// Key returns the key of addr's line while it is valid.
func (t *TagStore) Key(addr Addr) Addr { return addr>>t.Shift<<t.Shift | KeyValid }

// Probe records a tag-store probe in cycle now.
func (t *TagStore) Probe(now sim.Cycle) {
	t.Probes++
	t.LastProbed = now
}

// MayHold reports whether the snooper may hold addr's line: the line is
// valid in its set or being filled. A snooper that holds the line always
// passes; one that passes need not hold it (SnoopProbe answers exactly).
func (t *TagStore) MayHold(addr Addr) bool {
	key := t.Key(addr)
	return t.Keys[uint32(addr>>t.Shift)&uint32(len(t.Keys)-1)] == key || t.FillKey == key
}

// Memory is the storage module array on the bus.
type Memory interface {
	// ReadWord returns the word at addr; ok is false for unpopulated
	// addresses.
	ReadWord(addr Addr) (data uint32, ok bool)
	// WriteWord stores the word at addr; ok is false for unpopulated
	// addresses.
	WriteWord(addr Addr, data uint32) (ok bool)
}

// ECCMemory is an optional Memory extension for storage with an
// error-detection model. The bus type-asserts for it at AttachMemory and,
// when present, routes operation reads through ReadWordECC so an
// uncorrectable storage error reaches the initiator as FaultECC.
type ECCMemory interface {
	Memory
	// ReadWordECC reads like ReadWord but additionally reports whether an
	// uncorrectable error corrupted the data (correctable errors are fixed
	// internally and never surface here).
	ReadWordECC(addr Addr) (data uint32, ok bool, uncorrectable bool)
}

// FaultInjector decides, per bus operation, whether an injected fault
// occurs. A nil injector (the default) is the fault-free machine; the
// consultation is a single interface call per operation, and an injector
// that always answers FaultNone is behaviourally identical to none.
type FaultInjector interface {
	// OpFault is consulted once when an operation wins arbitration. It
	// returns the fault to inject (FaultNone for a clean operation) and,
	// for FaultTimeout, the extra cycles the watchdog holds the bus.
	OpFault(op OpKind, addr Addr) (FaultKind, uint64)
}

// InterruptSink receives MBus interprocessor interrupts.
type InterruptSink interface {
	Interrupt(from int)
}

type port struct {
	initiator Initiator
	snooper   Snooper
	sink      InterruptSink
	tags      *TagStore // non-nil when snooper implements TagSnooper
	// req is the operation on the port's request line and at the first
	// cycle it may arbitrate (Line.Raise); valid while the line is up
	// and, once granted, until its result is delivered. retried counts
	// the faulted attempts at req the bus has raised again.
	req     Request
	at      sim.Cycle
	retried int
	// faults and retries are the port's entries of Stats.FaultsPerPort
	// and Stats.RetriesPerPort.
	faults, retries uint64
}

// holder is one snooper's non-zero verdict on the in-flight operation.
type holder struct {
	port int
	v    SnoopVerdict
}

// Stats aggregates bus activity for load and traffic reporting.
type Stats struct {
	Ops        [numOpKinds]uint64 // completed operations by kind
	BusyCycles uint64             // cycles occupied by operations
	Cycles     uint64             // cycles elapsed since New or ResetStats
	SharedHits uint64             // ops during which MShared was asserted
	WaitCycles uint64             // requester-cycles spent waiting for grant
	PerPort    []uint64           // completed operations per initiating port
	// WaitPerPort splits WaitCycles by the waiting port: the per-port
	// arbitration losses that the fairness sweeps turn into wait-cycle
	// tails. Like WaitCycles it counts arbitration-conflict cycles (a
	// requester passed over while another port was granted), not cycles
	// spent behind a bus already busy.
	WaitPerPort []uint64
	// FaultsPerPort counts each initiating port's faulted operations
	// (parity, timeout or uncorrectable ECC), retried or delivered;
	// RetriesPerPort the ones the bus raised again after a backoff.
	FaultsPerPort, RetriesPerPort []uint64
	// FaultedOps counts operations aborted by an injected parity error or
	// timeout; they occupy the bus but are not counted in Ops.
	FaultedOps uint64
	// DroppedInterrupts counts interprocessor interrupts discarded for an
	// out-of-range, self, or detached (no sink) target.
	DroppedInterrupts uint64
}

// TotalOps returns the number of completed operations.
func (s Stats) TotalOps() uint64 {
	var t uint64
	for _, n := range s.Ops {
		t += n
	}
	return t
}

// Load returns the fraction of bus cycles that were non-idle — the paper's
// bus load L.
func (s Stats) Load() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.BusyCycles) / float64(s.Cycles)
}

// Bus is the MBus. It is stepped once per 100 ns cycle by the machine's
// run loop; it is not safe for concurrent use (the hardware wasn't either).
type Bus struct {
	clock  *sim.Clock
	arb    Arbiter
	ports  []port
	mem    Memory
	eccMem ECCMemory // non-nil when mem implements ECCMemory
	inj    FaultInjector
	// The retry policy for faulted operations (SetFaultPolicy).
	maxRetries    int
	backoffCycles uint64

	// in-flight operation
	active  bool
	phase   int // 1..4
	op      OpKind
	addr    Addr
	data    uint32
	victim  bool
	portNum int
	// holders are the non-zero verdicts of the in-flight operation, in
	// port order; reused across operations.
	holders []holder
	shared  bool
	// fault of the in-flight operation (FaultNone normally); holdLeft is
	// the remaining watchdog cycles of a timed-out operation.
	fault    FaultKind
	holdLeft uint64

	lastGrant int // most recently granted port (-1 before any grant)
	// raised holds the request lines that are up. backoff marks those of
	// them whose first arbitration cycle (port.at) had not come when they
	// were raised; arbitration clears a mark once the cycle has come.
	// ready is arbitrate's buffer for raised &^ backoff. Each starts as
	// one word of words0, so a bus of up to 64 ports allocates nothing
	// for its lines; Attach appends a word per further 64 ports.
	raised, backoff, ready Lines
	words0                 [3]uint64

	stats Stats
	since sim.Cycle // clock at New or the last ResetStats; Stats derives Cycles from it

	tracer *obs.Tracer
}

// New returns an empty bus on the given clock with the given arbitration
// policy (nil: the hardware's fixed priority). The bus adopts the arbiter
// — Reset is called here, and stateful arbiters must not be shared
// between buses.
func New(clock *sim.Clock, arb Arbiter) *Bus {
	if arb == nil {
		arb = NewFixedPriority()
	}
	arb.Reset()
	b := &Bus{clock: clock, arb: arb, lastGrant: -1, since: clock.Now()}
	b.raised, b.backoff, b.ready = b.words0[0:1:1], b.words0[1:2:2], b.words0[2:3:3]
	return b
}

// Arbiter returns the bus's arbitration policy.
func (b *Bus) Arbiter() Arbiter { return b.arb }

// Clock returns the bus clock.
func (b *Bus) Clock() *sim.Clock { return b.clock }

// AttachMemory connects the storage module array. Storage implementing
// ECCMemory gets its error model consulted on every operation read.
func (b *Bus) AttachMemory(m Memory) {
	b.mem = m
	b.eccMem, _ = m.(ECCMemory)
}

// SetFaultPolicy installs (or, with nil, removes) the per-operation
// fault injector, and sets the retry policy for every initiator's faulted
// operations: a parity error, a timeout or an uncorrectable ECC read is
// raised again on the initiator's line, to arbitrate backoffCycles<<(r-1)
// cycles after its r-th fault, up to maxRetries times. Only the fault
// that spends the budget reaches the initiator (BusComplete).
func (b *Bus) SetFaultPolicy(inj FaultInjector, maxRetries int, backoffCycles uint64) {
	b.inj, b.maxRetries, b.backoffCycles = inj, maxRetries, backoffCycles
}

// Attach adds an agent to the bus and returns its port number. Lower port
// numbers have higher fixed priority. Any of the three roles may be nil
// for agents that lack it (memory-side DMA engines do not snoop, pure
// snoopers never initiate). An initiator is handed its request line
// (Initiator.BusAttach); the bus keeps the port's line state, as it keeps
// its counters. A snooper implementing TagSnooper has its tag store
// probed by the bus itself.
func (b *Bus) Attach(in Initiator, sn Snooper, sink InterruptSink) int {
	p := port{initiator: in, snooper: sn, sink: sink}
	if ts, ok := sn.(TagSnooper); ok {
		p.tags = ts.TagStore()
	}
	n := len(b.ports)
	b.ports = append(b.ports, p)
	b.stats.PerPort = append(b.stats.PerPort, 0)
	b.stats.WaitPerPort = append(b.stats.WaitPerPort, 0)
	if n == 64*len(b.raised) {
		b.raised = append(b.raised, 0)
		b.backoff = append(b.backoff, 0)
		b.ready = append(b.ready, 0)
	}
	if in != nil {
		in.BusAttach(Line{bus: b, port: n})
	}
	return n
}

// Stats returns a snapshot of the accumulated bus statistics. Cycles is
// the time elapsed on the clock since New or ResetStats: skipped cycles
// count without the bus doing anything for them.
func (b *Bus) Stats() Stats {
	s := b.Counters()
	s.PerPort = append([]uint64(nil), b.stats.PerPort...)
	s.WaitPerPort = append([]uint64(nil), b.stats.WaitPerPort...)
	s.FaultsPerPort = make([]uint64, len(b.ports))
	s.RetriesPerPort = make([]uint64, len(b.ports))
	for i := range b.ports {
		s.FaultsPerPort[i], s.RetriesPerPort[i] = b.PortFaults(i)
	}
	return s
}

// Counters returns the scalar counters of Stats, Cycles included, and
// copies nothing: the per-port slices are nil. PortCounters and
// PortFaults read one port's entries.
func (b *Bus) Counters() Stats {
	s := b.stats
	s.Cycles = uint64(b.clock.Now() - b.since)
	s.PerPort, s.WaitPerPort = nil, nil
	return s
}

// PortCounters returns port's entries of Stats.PerPort and
// Stats.WaitPerPort.
func (b *Bus) PortCounters(port int) (ops, wait uint64) {
	return b.stats.PerPort[port], b.stats.WaitPerPort[port]
}

// PortFaults returns port's entries of Stats.FaultsPerPort and
// Stats.RetriesPerPort.
func (b *Bus) PortFaults(port int) (faults, retries uint64) {
	return b.ports[port].faults, b.ports[port].retries
}

// ResetStats clears the accumulated statistics (the clock is unaffected).
func (b *Bus) ResetStats() {
	per, wait := b.stats.PerPort, b.stats.WaitPerPort
	clear(per)
	clear(wait)
	b.stats = Stats{PerPort: per, WaitPerPort: wait}
	for i := range b.ports {
		b.ports[i].faults, b.ports[i].retries = 0, 0
	}
	b.since = b.clock.Now()
}

// SetTracer installs (or, with nil, removes) the observability tracer.
// The bus emits obs.KindBusGrant when arbitration is won, obs.KindBusShared
// when the wired-OR MShared line resolves asserted, and obs.KindBusOp when
// an operation completes — the three externally visible signals of the
// Figure 4 timing.
func (b *Bus) SetTracer(tr *obs.Tracer) { b.tracer = tr }

// Tracer returns the installed tracer (nil when tracing is disabled).
// Attached engines read it lazily so tracing enabled after attachment
// still covers them.
func (b *Bus) Tracer() *obs.Tracer { return b.tracer }

// Busy reports whether an operation is in flight.
func (b *Bus) Busy() bool { return b.active }

// InFlight returns the operation currently occupying the bus, if any.
// The invariant walker (internal/check) uses it to exclude the addressed
// line from cross-cache comparisons: between the commit cycle and the
// completion cycle the initiator and the snoopers legitimately disagree
// about that one line.
func (b *Bus) InFlight() (op OpKind, addr Addr, active bool) {
	return b.op, b.addr, b.active
}

// NextEvent reports the earliest future cycle at which stepping the bus
// may change observable state: the next cycle while an operation is in
// flight or a raised request line may arbitrate, the earliest retry
// backoff expiry while every raised line waits one out, and sim.Never
// when no line is up. It reads only the bus's own state: the lines are
// the initiators' raised requests.
func (b *Bus) NextEvent(now sim.Cycle) sim.Cycle {
	if b.active {
		return now + 1
	}
	ev := sim.Never
	for w, up := range b.raised {
		if up&^b.backoff[w] != 0 {
			return now + 1
		}
		for ; up != 0; up &= up - 1 {
			ev = min(ev, b.ports[w<<6+bits.TrailingZeros64(up)].at)
		}
	}
	return max(ev, now+1)
}

// Raised reports whether port's request line is up and, if so, the first
// cycle it may arbitrate at (Line.Raise).
func (b *Bus) Raised(port int) (at sim.Cycle, up bool) {
	if !b.raised.Has(port) {
		return 0, false
	}
	return b.ports[port].at, true
}

// Interrupt delivers an MBus interprocessor interrupt to the agent on the
// target port. Delivery is immediate; the hardware used dedicated bus
// facilities that did not contend with data transfers.
// A bad target — out of range, the sender itself, or a port with no
// interrupt sink — must not take the machine down mid-cycle: devices
// compute targets from software-writable registers, so the bus drops the
// interrupt and counts it instead of panicking.
func (b *Bus) Interrupt(from, target int) {
	if target < 0 || target >= len(b.ports) || target == from {
		b.stats.DroppedInterrupts++
		return
	}
	sink := b.ports[target].sink
	if sink == nil {
		b.stats.DroppedInterrupts++
		return
	}
	sink.Interrupt(from)
}

// Step advances the bus by one cycle. The machine's run loop must call
// Step exactly once per clock tick, before ticking the processors, so a
// request they raise reaches arbitration on the next cycle. It returns
// the port whose initiator was handed its result (BusComplete) in this
// cycle, or -1; an operation that faulted and is retried (SetFaultPolicy)
// hands over nothing. In cycle 2 of an operation every snooper but the
// initiator is probed: a TagSnooper's probe is counted and latched in its
// tag store, and SnoopProbe is called only on the snoopers that may hold
// the line. A faulted operation probes no one.
func (b *Bus) Step() (done int) {
	if !b.active {
		b.arbitrate()
		if !b.active {
			return -1
		}
		// Arbitration and address transmission share the first cycle.
	}
	b.stats.BusyCycles++
	if b.fault != FaultNone {
		// An injected parity error or timeout: the operation occupies the
		// bus but makes no architectural progress — no snoop probes, no
		// MShared resolution, no memory access. A timeout additionally
		// holds the bus for the watchdog window before the initiator sees
		// the error.
		if b.phase < OpCycles {
			b.phase++
			return -1
		}
		if b.holdLeft > 0 {
			b.holdLeft--
			return -1
		}
		done = b.completeFaulted()
		b.active = false
		return done
	}
	switch b.phase {
	case 1:
		// Address and operation are on the bus; nothing else happens.
	case 2:
		b.probeAll()
	case 3:
		b.resolveShared()
	case 4:
		done = b.complete()
		b.active = false
		return done
	}
	b.phase++
	return -1
}

func (b *Bus) arbitrate() {
	req := b.raised
	for _, off := range b.backoff {
		if off != 0 {
			req = b.readyLines()
			break
		}
	}
	if req.Next(0) < 0 {
		return
	}
	granted := b.arb.Grant(req, b.lastGrant)
	if !req.Has(granted) {
		panic(fmt.Sprintf("mbus: arbiter %q granted port %d, which is not requesting", b.arb.Name(), granted))
	}
	// Every other requester waits this cycle.
	waiting, mask := 0, uint64(0)
	for w, word := range req {
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			if i == granted {
				continue
			}
			waiting++
			b.stats.WaitCycles++
			b.stats.WaitPerPort[i]++
			if i < 64 {
				mask |= 1 << uint(i)
			}
		}
	}
	if waiting > 0 && b.tracer != nil {
		b.tracer.Emit(obs.Event{
			Cycle: uint64(b.clock.Now()),
			Kind:  obs.KindBusArb,
			Unit:  int32(granted),
			A:     uint64(waiting + 1),
			B:     mask,
			Label: b.arb.Name(),
		})
	}
	b.raised.clear(granted)
	b.lastGrant = granted
	b.begin(granted, b.ports[granted].req)
}

// readyLines returns the raised lines that may arbitrate in this cycle,
// first clearing the backoff marks whose cycle has come.
func (b *Bus) readyLines() Lines {
	now := b.clock.Now()
	for w, off := range b.backoff {
		for m := off; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if b.ports[w<<6+i].at <= now {
				b.backoff[w] &^= 1 << uint(i)
			}
		}
		b.ready[w] = b.raised[w] &^ b.backoff[w]
	}
	return b.ready
}

func (b *Bus) begin(port int, req Request) {
	b.active = true
	b.phase = 1
	b.op = req.Op
	b.addr = req.Addr.Line()
	b.data = req.Data
	b.victim = req.Victim
	b.portNum = port
	b.shared = false
	b.fault = FaultNone
	b.holdLeft = 0
	if b.inj != nil {
		b.fault, b.holdLeft = b.inj.OpFault(b.op, b.addr)
	}
	if cap(b.holders) < len(b.ports) {
		b.holders = make([]holder, 0, len(b.ports))
	}
	b.holders = b.holders[:0]
	if b.tracer != nil {
		b.tracer.Emit(obs.Event{
			Cycle: uint64(b.clock.Now()),
			Kind:  obs.KindBusGrant,
			Unit:  int32(port),
			Addr:  uint32(b.addr),
			A:     uint64(b.op),
			Label: b.op.String(),
		})
	}
}

// probeAll is cycle 2 (see Step). Non-zero verdicts are kept, in port
// order, in holders.
func (b *Bus) probeAll() {
	var data uint32
	if b.op.CarriesData() {
		data = b.data
	}
	now := b.clock.Now()
	for i := range b.ports {
		if i == b.portNum {
			continue
		}
		p := &b.ports[i]
		if p.snooper == nil {
			continue
		}
		if t := p.tags; t != nil {
			t.Probe(now)
			if !t.MayHold(b.addr) {
				continue
			}
		}
		v := p.snooper.SnoopProbe(b.op, b.addr, data)
		if v.HasLine || v.Supply || v.MemWrite || len(v.Flush) > 0 {
			b.holders = append(b.holders, holder{port: i, v: v})
		}
	}
}

func (b *Bus) resolveShared() {
	for i := range b.holders {
		if b.holders[i].v.HasLine {
			b.shared = true
			break
		}
	}
	if b.shared {
		b.stats.SharedHits++
		if b.tracer != nil {
			b.tracer.Emit(obs.Event{
				Cycle: uint64(b.clock.Now()),
				Kind:  obs.KindBusShared,
				Unit:  int32(b.portNum),
				Addr:  uint32(b.addr),
				A:     uint64(b.op),
				Label: b.op.String(),
			})
		}
	}
	var data uint32
	if b.op.CarriesData() {
		data = b.data
	}
	for i := range b.holders {
		if h := &b.holders[i]; h.v.HasLine {
			b.ports[h.port].snooper.SnoopCommit(b.op, b.addr, data, b.shared)
		}
	}
	if b.tracer != nil && b.op.CarriesData() {
		// Cycle 3 is the serialization point of a data-carrying operation:
		// snooping caches have just committed the value, so from this cycle
		// on every agent observes the new word. The coherence oracle keys
		// its reference-memory update off this event.
		var victim uint64
		if b.victim {
			victim = 1
		}
		b.tracer.Emit(obs.Event{
			Cycle: uint64(b.clock.Now()),
			Kind:  obs.KindBusStore,
			Unit:  int32(b.portNum),
			Addr:  uint32(b.addr),
			A:     uint64(b.data),
			B:     victim,
			Label: b.op.String(),
		})
	}
}

// complete is cycle 4 (see Step); it returns deliver's result.
func (b *Bus) complete() int {
	res := Result{
		Op:     b.op,
		Addr:   b.addr,
		Shared: b.shared,
		Done:   b.clock.Now(),
	}
	// Snoop-side flushes land before the operation's own memory effect so
	// the operation's data (the newest value) wins on overlap.
	if b.mem != nil {
		for i := range b.holders {
			for _, f := range b.holders[i].v.Flush {
				b.mem.WriteWord(f.Addr, f.Data)
			}
		}
	}
	if b.op.IsRead() {
		supplied := false
		reflect := false
		var word uint32
		for i := range b.holders {
			v := &b.holders[i].v
			if !v.Supply {
				continue
			}
			if supplied && v.Data != word {
				// The protocol guarantees all supplying caches hold
				// identical values ("More than one cache may supply read
				// data, but since the protocol ensures coherence, the
				// values will be identical", §5.1). Divergence is a
				// protocol implementation bug, so fail loudly.
				panic(fmt.Sprintf("mbus: incoherent supply at %v: %#x vs %#x", b.addr, word, v.Data))
			}
			supplied = true
			word = v.Data
			reflect = reflect || v.MemWrite
		}
		if supplied {
			res.Data = word
			res.CacheSupplied = true
			if reflect && b.mem != nil {
				b.mem.WriteWord(b.addr, word)
			}
		} else if b.eccMem != nil {
			if w, ok, bad := b.eccMem.ReadWordECC(b.addr); ok {
				if bad {
					// An uncorrectable storage error: the operation ran
					// normally on the bus, but the data is unusable. The
					// error is transient, so the retry (deliver) re-reads
					// a clean word.
					res.Fault = FaultECC
				} else {
					res.Data = w
				}
			}
		} else if b.mem != nil {
			if w, ok := b.mem.ReadWord(b.addr); ok {
				res.Data = w
			}
		}
	}
	if b.op.WritesMemory() && b.mem != nil {
		b.mem.WriteWord(b.addr, b.data)
	}
	b.stats.Ops[b.op]++
	b.stats.PerPort[b.portNum]++
	if b.tracer != nil {
		var shared uint64
		if b.shared {
			shared = 1
		}
		b.tracer.Emit(obs.Event{
			Cycle: uint64(b.clock.Now()),
			Kind:  obs.KindBusOp,
			Unit:  int32(b.portNum),
			Addr:  uint32(b.addr),
			A:     uint64(b.op),
			B:     shared,
			Label: b.op.String(),
		})
	}
	return b.deliver(res)
}

// completeFaulted delivers an injected-fault result (deliver). The
// operation is not counted in Ops (it never completed) but its bus
// occupancy was charged.
func (b *Bus) completeFaulted() int {
	b.stats.FaultedOps++
	if b.tracer != nil {
		b.tracer.Emit(obs.Event{
			Cycle: uint64(b.clock.Now()),
			Kind:  obs.KindFaultBusOp,
			Unit:  int32(b.portNum),
			Addr:  uint32(b.addr),
			A:     uint64(b.op),
			B:     uint64(b.fault),
			Label: b.fault.String(),
		})
	}
	res := Result{
		Op:    b.op,
		Addr:  b.addr,
		Fault: b.fault,
		Done:  b.clock.Now(),
	}
	b.fault = FaultNone
	return b.deliver(res)
}

// deliver hands the in-flight operation's result to its initiator and
// returns the port, unless the operation faulted with retries left: then
// it raises the port's line again with the same request, to arbitrate
// after the backoff, and returns -1. A delivered result, clean or with
// the fault that spent the budget, starts the port's count afresh.
func (b *Bus) deliver(res Result) int {
	p := &b.ports[b.portNum]
	if res.Fault != FaultNone {
		p.faults++
		if p.retried < b.maxRetries {
			p.retried++
			p.retries++
			backoff := b.backoffCycles << (p.retried - 1)
			now := b.clock.Now()
			Line{bus: b, port: b.portNum}.Raise(p.req, now+sim.Cycle(backoff))
			if b.tracer != nil {
				b.tracer.Emit(obs.Event{
					Cycle: uint64(now),
					Kind:  obs.KindFaultRetry,
					Unit:  int32(b.portNum),
					Addr:  uint32(p.req.Addr),
					A:     uint64(p.retried),
					B:     backoff,
				})
			}
			return -1
		}
	}
	p.retried = 0
	p.initiator.BusComplete(res)
	return b.portNum
}
