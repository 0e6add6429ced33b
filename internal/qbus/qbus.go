// Package qbus models the Firefly's I/O system: the DEC QBus borrowed
// from the MicroVAX II, its 22-bit address space mapped into Firefly
// physical memory by mapping registers under I/O-processor control, and
// the two standard DMA peripherals — the RQDX3 disk controller and the
// DEQNA Ethernet controller (§3, §5).
//
// The hardware routed DMA through the I/O processor's cache without
// allocating on misses. The simulator gives the DMA path its own MBus
// port: the I/O processor's cache (and every other cache) snoops the DMA
// operations, which preserves the architecturally visible behaviour —
// coherent I/O and bus bandwidth consumption — without modeling the
// cache's internal no-allocate path. A fully loaded QBus consumes about
// 30% of MBus bandwidth, matching the paper.
package qbus

import (
	"fmt"

	"firefly/internal/mbus"
	"firefly/internal/obs"
	"firefly/internal/sim"
	"firefly/internal/stats"
)

// QBus geometry.
const (
	// AddressBits is the QBus address width: a 22-bit space, "mapped into
	// the 24-bit space of the Firefly by mapping registers".
	AddressBits = 22
	// PageBytes is the mapping granularity (the VAX 512-byte page).
	PageBytes = 512
	// NumMapRegisters covers the whole QBus space.
	NumMapRegisters = (1 << AddressBits) / PageBytes
	// DefaultWordCycles paces DMA at one 4-byte word per 13 bus cycles
	// (1.3 µs), about 3 MB/s — which loads the 10 MB/s MBus at roughly
	// 30% when saturated, the paper's figure.
	DefaultWordCycles = 13
)

// MapRegisters translate QBus addresses to Firefly physical addresses.
// Only the I/O processor programs them.
type MapRegisters struct {
	phys  [NumMapRegisters]mbus.Addr
	valid [NumMapRegisters]bool
}

// Map points QBus page qpage at the physical page containing phys.
func (m *MapRegisters) Map(qpage int, phys mbus.Addr) {
	if qpage < 0 || qpage >= NumMapRegisters {
		panic(fmt.Sprintf("qbus: map register %d out of range", qpage))
	}
	if uint32(phys)%PageBytes != 0 {
		panic(fmt.Sprintf("qbus: physical address %v not page aligned", phys))
	}
	m.phys[qpage] = phys
	m.valid[qpage] = true
}

// Unmap invalidates a mapping register.
func (m *MapRegisters) Unmap(qpage int) {
	if qpage < 0 || qpage >= NumMapRegisters {
		panic(fmt.Sprintf("qbus: map register %d out of range", qpage))
	}
	m.valid[qpage] = false
}

// MapRange maps a contiguous QBus window starting at qaddr onto physical
// memory starting at phys, covering at least bytes.
func (m *MapRegisters) MapRange(qaddr uint32, phys mbus.Addr, bytes uint32) {
	if qaddr%PageBytes != 0 {
		panic("qbus: window must start on a page boundary")
	}
	pages := int((bytes + PageBytes - 1) / PageBytes)
	for i := 0; i < pages; i++ {
		m.Map(int(qaddr/PageBytes)+i, phys+mbus.Addr(i*PageBytes))
	}
}

// Translate converts a QBus address to a Firefly physical address.
func (m *MapRegisters) Translate(qaddr uint32) (mbus.Addr, error) {
	if qaddr >= 1<<AddressBits {
		return 0, fmt.Errorf("qbus: address %#x exceeds 22 bits", qaddr)
	}
	page := qaddr / PageBytes
	if !m.valid[page] {
		return 0, fmt.Errorf("qbus: page %d not mapped", page)
	}
	return m.phys[page] + mbus.Addr(qaddr%PageBytes), nil
}

// Transfer is one DMA operation.
type Transfer struct {
	// Device labels the requesting controller in trace events.
	Device string
	// ToMemory is true for device-to-memory transfers (disk reads,
	// packet receive); false for memory-to-device (disk writes, packet
	// transmit).
	ToMemory bool
	// QAddr is the starting QBus address (longword aligned).
	QAddr uint32
	// Words is the transfer length in 4-byte words.
	Words int
	// Data supplies the words written to memory (ToMemory) and receives
	// the words read from memory (!ToMemory). Length must be Words.
	Data []uint32
	// OnDone runs when the transfer leaves the engine. fault is false
	// when every word completed, true when the transfer aborted early —
	// a mapping fault (NXM on the real bus), an injected device NXM, or
	// a word whose MBus operation faulted after the bus spent its retry
	// budget. An aborted ToMemory transfer may have
	// written a prefix of Data to memory; an aborted read leaves the tail
	// of Data untouched. Devices must check fault before consuming Data.
	OnDone func(fault bool)
}

// DMAFaultInjector injects QBus-side DMA faults. It is consulted once
// per word, after address translation succeeds: nxm aborts the transfer
// as a non-existent-memory error, while a non-zero stall freezes the
// engine for that many cycles (bus-grant contention, device not ready)
// before the word is retried from the top.
type DMAFaultInjector interface {
	DMAWordFault(addr mbus.Addr) (nxm bool, stallCycles uint64)
}

// EngineStats counts DMA activity.
type EngineStats struct {
	Transfers  stats.Counter
	WordsMoved stats.Counter
	MapFaults  stats.Counter
	NXMFaults  stats.Counter // injected device NXM aborts
	Aborted    stats.Counter // transfers abandoned after the bus's retries ran out
}

// Engine is the QBus DMA engine: a paced MBus initiator that executes
// queued transfers word by word through the mapping registers.
type Engine struct {
	clock *sim.Clock
	bus   *mbus.Bus
	maps  *MapRegisters
	line  mbus.Line

	wordCycles uint64
	queue      sim.FIFO[*Transfer]
	cur        *Transfer
	pos        int
	nextIssue  sim.Cycle
	// onBus holds from raising the current word's operation on the line
	// until its BusComplete.
	onBus bool

	inj       DMAFaultInjector
	stallTill sim.Cycle

	stats EngineStats
}

// NewEngine creates the DMA engine and attaches it to the bus.
// wordCycles of 0 selects the default pacing.
func NewEngine(clock *sim.Clock, bus *mbus.Bus, maps *MapRegisters, wordCycles uint64) *Engine {
	if wordCycles == 0 {
		wordCycles = DefaultWordCycles
	}
	e := &Engine{
		clock:      clock,
		bus:        bus,
		maps:       maps,
		wordCycles: wordCycles,
	}
	bus.Attach(e, nil, nil)
	return e
}

// emit sends a DMA event to the bus's tracer, if one is installed. The
// tracer is read lazily so tracing enabled after engine attachment (via
// machine.Trace) still covers DMA.
func (e *Engine) emit(kind obs.Kind, addr mbus.Addr, a, b uint64, label string) {
	tr := e.bus.Tracer()
	if tr == nil {
		return
	}
	tr.Emit(obs.Event{
		Cycle: uint64(e.clock.Now()),
		Kind:  kind,
		Unit:  int32(e.line.Port()),
		Addr:  uint32(addr),
		A:     a,
		B:     b,
		Label: label,
	})
}

// Port returns the engine's MBus port number.
func (e *Engine) Port() int { return e.line.Port() }

// SetFaultInjector installs (or, with nil, removes) the injector of
// QBus-side DMA faults: NXM aborts and stalls. A faulted MBus operation
// is the bus's to retry (mbus.Bus.SetFaultPolicy); the engine sees only
// the fault that spends the budget, and aborts the transfer with
// OnDone(true).
func (e *Engine) SetFaultInjector(inj DMAFaultInjector) { e.inj = inj }

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() EngineStats { return e.stats }

// Busy reports whether transfers are queued or in progress.
func (e *Engine) Busy() bool { return e.cur != nil || e.queue.Len() > 0 }

// QueueLen returns the number of pending transfers (excluding the current).
func (e *Engine) QueueLen() int { return e.queue.Len() }

// AwaitsBus reports whether a word is on the engine's request line or in
// flight: the bus's, not the engine's, events until its BusComplete.
func (e *Engine) AwaitsBus() bool { return e.onBus }

// NextEvent reports the earliest future cycle at which stepping the
// engine may change observable state: sim.Never when idle (no queued or
// current transfer) and while a word awaits the bus (whose NextEvent
// covers it, retry backoff included), the pacing or fault-stall expiry
// between words, and the next cycle otherwise.
func (e *Engine) NextEvent(now sim.Cycle) sim.Cycle {
	if e.onBus {
		return sim.Never
	}
	if e.cur == nil {
		if e.queue.Len() == 0 {
			return sim.Never
		}
		return now + 1
	}
	wake := e.nextIssue
	if e.stallTill > wake {
		wake = e.stallTill
	}
	if wake <= now {
		return now + 1
	}
	return wake
}

// Submit queues a transfer.
func (e *Engine) Submit(t *Transfer) {
	if t.Words <= 0 {
		panic("qbus: transfer with no words")
	}
	if len(t.Data) != t.Words {
		panic(fmt.Sprintf("qbus: transfer data length %d != words %d", len(t.Data), t.Words))
	}
	if t.QAddr%4 != 0 {
		panic("qbus: transfer must be longword aligned")
	}
	e.queue.Push(t)
}

// Step advances the engine one bus cycle; the machine must call it once
// per cycle.
func (e *Engine) Step() {
	if e.onBus {
		return
	}
	if e.cur == nil {
		if e.queue.Len() == 0 {
			return
		}
		e.cur = e.queue.Pop()
		e.pos = 0
		e.stats.Transfers.Inc()
		e.emit(obs.KindDMAStart, mbus.Addr(e.cur.QAddr), uint64(e.cur.Words),
			boolArg(e.cur.ToMemory), e.cur.Device)
	}
	if e.clock.Now() < e.nextIssue || e.clock.Now() < e.stallTill {
		return
	}
	qaddr := e.cur.QAddr + uint32(e.pos*4)
	phys, err := e.maps.Translate(qaddr)
	if err != nil {
		// A mapping fault aborts the transfer, as a real controller would
		// NXM-abort; the device learns via OnDone(true).
		e.stats.MapFaults.Inc()
		e.emit(obs.KindDMAFault, mbus.Addr(qaddr), uint64(e.pos), 0, e.cur.Device)
		e.finishCurrent(true)
		return
	}
	if e.inj != nil {
		nxm, stall := e.inj.DMAWordFault(mbus.Addr(qaddr))
		if nxm {
			e.stats.NXMFaults.Inc()
			e.emit(obs.KindDMAFault, mbus.Addr(qaddr), uint64(e.pos), 1, e.cur.Device)
			e.finishCurrent(true)
			return
		}
		if stall > 0 {
			e.emit(obs.KindFaultDMAStall, mbus.Addr(qaddr), stall, 0, e.cur.Device)
			e.stallTill = e.clock.Now() + sim.Cycle(stall)
			return
		}
	}
	req := mbus.Request{Op: mbus.MRead, Addr: phys}
	if e.cur.ToMemory {
		req = mbus.Request{Op: mbus.MWrite, Addr: phys, Data: e.cur.Data[e.pos]}
	}
	e.emit(obs.KindDMAWord, phys, uint64(e.pos), boolArg(e.cur.ToMemory), e.cur.Device)
	e.onBus = true
	e.line.Raise(req, 0)
	// Pace issue-to-issue so a saturated engine sustains one word per
	// wordCycles regardless of bus latency.
	e.nextIssue = e.clock.Now() + sim.Cycle(e.wordCycles)
}

// BusAttach implements mbus.Initiator.
func (e *Engine) BusAttach(l mbus.Line) { e.line = l }

// BusComplete implements mbus.Initiator.
func (e *Engine) BusComplete(res mbus.Result) {
	e.onBus = false
	if res.Fault != mbus.FaultNone {
		// The bus spent its retries on the word: abort the transfer.
		e.stats.Aborted.Inc()
		e.emit(obs.KindDMAFault, mbus.Addr(e.cur.QAddr+uint32(e.pos*4)), uint64(e.pos), 2, e.cur.Device)
		e.finishCurrent(true)
		return
	}
	if !e.cur.ToMemory {
		e.cur.Data[e.pos] = res.Data
	}
	e.stats.WordsMoved.Inc()
	e.pos++
	if e.pos >= e.cur.Words {
		e.emit(obs.KindDMADone, mbus.Addr(e.cur.QAddr), uint64(e.pos), 0, e.cur.Device)
		e.finishCurrent(false)
	}
}

// boolArg converts a flag to an event argument.
func boolArg(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (e *Engine) finishCurrent(fault bool) {
	done := e.cur.OnDone
	e.cur = nil
	e.pos = 0
	e.stallTill = 0
	if done != nil {
		done(fault)
	}
}

var _ mbus.Initiator = (*Engine)(nil)
