package qbus

import (
	"fmt"

	"firefly/internal/mbus"
	"firefly/internal/sim"
	"firefly/internal/stats"
)

// SectorBytes is the disk sector size.
const SectorBytes = 512

// sectorWords is the sector size in longwords.
const sectorWords = SectorBytes / 4

// DiskConfig models the RQDX3 controller plus an RD-series drive.
type DiskConfig struct {
	// Sectors is the drive capacity.
	Sectors uint32
	// SeekCycles is the average seek plus rotational latency in bus
	// cycles (default 250_000 = 25 ms, typical for an RD53).
	SeekCycles uint64
}

func (c DiskConfig) withDefaults() DiskConfig {
	if c.Sectors == 0 {
		c.Sectors = 138672 // RD53: ~71 MB
	}
	if c.SeekCycles == 0 {
		c.SeekCycles = 250_000
	}
	return c
}

// DiskStats counts controller activity.
type DiskStats struct {
	Reads      stats.Counter
	Writes     stats.Counter
	Faults     stats.Counter // commands whose DMA transfer aborted
	Interrupts stats.Counter
}

// diskOp is a queued disk command.
type diskOp struct {
	write  bool
	lba    uint32
	qaddr  uint32
	onDone func()
}

// Disk is the RQDX3: a buffered DMA disk controller. Sector data lives in
// a sparse block store; transfers move real bytes between the store and
// Firefly memory through the DMA engine.
type Disk struct {
	cfg    DiskConfig
	clock  *sim.Clock
	engine *Engine
	bus    *mbus.Bus

	store map[uint32][]uint32 // lba -> sector words

	queue    sim.FIFO[diskOp]
	busyTill sim.Cycle
	seeking  bool
	cur      *diskOp

	stats DiskStats
}

// NewDisk creates a disk controller using the given DMA engine.
func NewDisk(clock *sim.Clock, bus *mbus.Bus, engine *Engine, cfg DiskConfig) *Disk {
	return &Disk{
		cfg:    cfg.withDefaults(),
		clock:  clock,
		engine: engine,
		bus:    bus,
		store:  make(map[uint32][]uint32),
	}
}

// Stats returns a snapshot of the disk counters.
func (d *Disk) Stats() DiskStats { return d.stats }

// LoadSector installs sector contents directly (disk image preparation).
func (d *Disk) LoadSector(lba uint32, words []uint32) {
	if lba >= d.cfg.Sectors {
		panic(fmt.Sprintf("qbus: LBA %d beyond drive capacity", lba))
	}
	if len(words) != sectorWords {
		panic(fmt.Sprintf("qbus: sector must be %d words", sectorWords))
	}
	d.store[lba] = append([]uint32(nil), words...)
}

// PeekSector returns sector contents without device activity.
func (d *Disk) PeekSector(lba uint32) []uint32 {
	if s, ok := d.store[lba]; ok {
		return append([]uint32(nil), s...)
	}
	return make([]uint32, sectorWords)
}

// Read queues a sector read: disk -> memory at QBus address qaddr.
func (d *Disk) Read(lba uint32, qaddr uint32, onDone func()) {
	if lba >= d.cfg.Sectors {
		panic(fmt.Sprintf("qbus: LBA %d beyond drive capacity", lba))
	}
	d.queue.Push(diskOp{write: false, lba: lba, qaddr: qaddr, onDone: onDone})
}

// Write queues a sector write: memory at QBus address qaddr -> disk.
func (d *Disk) Write(lba uint32, qaddr uint32, onDone func()) {
	if lba >= d.cfg.Sectors {
		panic(fmt.Sprintf("qbus: LBA %d beyond drive capacity", lba))
	}
	d.queue.Push(diskOp{write: true, lba: lba, qaddr: qaddr, onDone: onDone})
}

// QueueLen returns pending commands (excluding any in progress).
func (d *Disk) QueueLen() int { return d.queue.Len() }

// NextEvent reports the earliest future cycle at which Step may change
// the controller's state: the end of the mechanical delay while seeking,
// the next cycle while a command waits at the head of the queue, and
// never otherwise — during the DMA phase the controller advances through
// engine callbacks, and the engine's and the bus's NextEvent cover that
// activity.
func (d *Disk) NextEvent(now sim.Cycle) sim.Cycle {
	if d.cur != nil {
		if d.seeking {
			if d.busyTill > now {
				return d.busyTill
			}
			return now + 1
		}
		return sim.Never
	}
	if d.queue.Len() > 0 {
		return now + 1
	}
	return sim.Never
}

// Step advances the controller one cycle.
func (d *Disk) Step() {
	if d.cur != nil {
		if d.seeking && d.clock.Now() >= d.busyTill {
			d.seeking = false
			d.startTransfer()
		}
		return
	}
	if d.queue.Len() == 0 {
		return
	}
	op := d.queue.Pop()
	d.cur = &op
	d.seeking = true
	d.busyTill = d.clock.Now() + sim.Cycle(d.cfg.SeekCycles)
}

// startTransfer begins the DMA phase after the mechanical delay.
func (d *Disk) startTransfer() {
	op := d.cur
	if op.write {
		// Memory -> controller buffer -> media.
		buf := make([]uint32, sectorWords)
		d.engine.Submit(&Transfer{
			Device: "rqdx3", ToMemory: false,
			QAddr: op.qaddr, Words: sectorWords, Data: buf,
			OnDone: func(fault bool) {
				if fault {
					// A partial DMA read must not reach the media: the
					// sector keeps its prior contents and the completion
					// interrupt carries error status.
					d.stats.Faults.Inc()
					d.complete(op)
					return
				}
				d.store[op.lba] = buf
				d.stats.Writes.Inc()
				d.complete(op)
			},
		})
		return
	}
	data := d.PeekSector(op.lba)
	d.engine.Submit(&Transfer{
		Device: "rqdx3", ToMemory: true,
		QAddr: op.qaddr, Words: sectorWords, Data: data,
		OnDone: func(fault bool) {
			if fault {
				d.stats.Faults.Inc()
			} else {
				d.stats.Reads.Inc()
			}
			d.complete(op)
		},
	})
}

func (d *Disk) complete(op *diskOp) {
	d.cur = nil
	d.stats.Interrupts.Inc()
	d.bus.Interrupt(d.engine.Port(), 0) // the I/O processor
	if op.onDone != nil {
		op.onDone()
	}
}

// EthernetStats counts controller activity.
type EthernetStats struct {
	Transmitted stats.Counter
	Received    stats.Counter
	Faults      stats.Counter // operations whose DMA or transmission aborted
	Interrupts  stats.Counter
	WordsOnWire stats.Counter
}

// Packet is an Ethernet frame payload in longwords. Its words are
// immutable from the transmit DMA onward: the medium, a bridge and every
// receiving controller share the one slice the transmit DMA filled, and
// none of them writes it.
type Packet struct {
	Words []uint32
}

type etherOp struct {
	transmit bool
	qaddr    uint32
	words    int
	payload  []uint32 // the frame: received, or filled by the transmit DMA
	onDone   func(Packet)
}

// Medium is the shared wire the DEQNA transmits on; in a cluster it is
// the cluster's send capture in front of an internal/net Segment. The
// medium owns serialization, busy deferral and collision backoff, and it
// carries every frame the controller later receives. It may keep pkt's
// words as long as it likes and hand them to any number of receivers,
// but must not write them.
type Medium interface {
	// Transmit serializes pkt onto the wire. done runs when the frame has
	// left the wire (ok) or the transmission was abandoned after repeated
	// collisions (!ok).
	Transmit(pkt Packet, done func(ok bool))
}

// Ethernet is the DEQNA: a DMA Ethernet controller on a Medium. A
// transmit fetches the frame from host memory by DMA into a fresh word
// buffer, the one allocation a transmitted frame costs, and hands it to
// the medium; a receive, whose frame the medium has already carried, is
// DMA'd straight from those words into host memory. Every completion
// interrupts the I/O processor (MBus port 0).
//
// The controller runs one operation at a time, so that operation, its
// DMA transfer and its completion callbacks are fields bound once in
// NewEthernet.
type Ethernet struct {
	bus    *mbus.Bus
	engine *Engine
	medium Medium

	queue sim.FIFO[etherOp]
	cur   etherOp
	busy  bool // cur is in progress
	xfer  Transfer
	sent  func(ok bool) // the medium's completion of cur

	stats EthernetStats
}

// NewEthernet creates a DEQNA that uses the given DMA engine and
// transmits on medium.
func NewEthernet(bus *mbus.Bus, engine *Engine, medium Medium) *Ethernet {
	e := &Ethernet{bus: bus, engine: engine, medium: medium}
	e.xfer = Transfer{Device: "deqna", OnDone: e.dmaDone}
	e.sent = e.wireDone
	return e
}

// Stats returns a snapshot of the controller counters.
func (e *Ethernet) Stats() EthernetStats { return e.stats }

// Busy reports whether operations are queued or in progress.
func (e *Ethernet) Busy() bool { return e.busy || e.queue.Len() > 0 }

// Transmit queues a packet send: words longwords DMA'd from QBus address
// qaddr, then serialized onto the medium. onDone (optional) receives the
// transmitted packet, or an empty one if the send failed.
func (e *Ethernet) Transmit(qaddr uint32, words int, onDone func(Packet)) {
	if words <= 0 || words > 379 { // 1516-byte maximum frame
		panic(fmt.Sprintf("qbus: implausible frame of %d words", words))
	}
	e.queue.Push(etherOp{transmit: true, qaddr: qaddr, words: words, onDone: onDone})
}

// Receive queues an inbound packet, already carried by the medium, for
// DMA to QBus address qaddr. The DMA reads pkt's words in place, without
// a copy; onDone (optional) receives the same packet, or an empty one if
// the DMA aborted.
func (e *Ethernet) Receive(pkt Packet, qaddr uint32, onDone func(Packet)) {
	if len(pkt.Words) == 0 {
		panic("qbus: empty inbound packet")
	}
	e.queue.Push(etherOp{qaddr: qaddr, words: len(pkt.Words), payload: pkt.Words, onDone: onDone})
}

// NextEvent reports the earliest future cycle at which Step may change
// the controller's state: the next cycle while an operation waits at the
// head of the queue, and never otherwise — DMA phases advance through
// engine callbacks and transmits through the medium's completion
// callback, both covered by their owners' NextEvent.
func (e *Ethernet) NextEvent(now sim.Cycle) sim.Cycle {
	if !e.busy && e.queue.Len() > 0 {
		return now + 1
	}
	return sim.Never
}

// Step advances the controller one cycle: an idle controller starts the
// DMA for the operation at the head of its queue — from host memory into
// a fresh frame buffer for a transmit, from the carried frame into host
// memory for a receive.
func (e *Ethernet) Step() {
	if e.busy || e.queue.Len() == 0 {
		return
	}
	e.cur = e.queue.Pop()
	e.busy = true
	if e.cur.transmit {
		e.cur.payload = make([]uint32, e.cur.words)
	}
	e.xfer.ToMemory = !e.cur.transmit
	e.xfer.QAddr = e.cur.qaddr
	e.xfer.Words = e.cur.words
	e.xfer.Data = e.cur.payload
	e.engine.Submit(&e.xfer)
}

// dmaDone is the DMA completion of cur.
func (e *Ethernet) dmaDone(fault bool) {
	e.xfer.Data = nil
	switch {
	case fault:
		// Nothing goes on the wire, or the received packet is lost (a
		// real DEQNA would flag a receive overrun); either way the
		// interrupt fires with error status and software sees an empty
		// packet.
		e.stats.Faults.Inc()
		e.complete(Packet{})
	case e.cur.transmit:
		e.medium.Transmit(Packet{Words: e.cur.payload}, e.sent)
	default:
		e.stats.Received.Inc()
		e.complete(Packet{Words: e.cur.payload})
	}
}

// wireDone is the medium's completion of the transmit in cur.
func (e *Ethernet) wireDone(ok bool) {
	if !ok {
		// Abandoned after repeated collisions; software sees the
		// transmit error and may retry.
		e.stats.Faults.Inc()
		e.complete(Packet{})
		return
	}
	e.stats.WordsOnWire.Add(uint64(e.cur.words))
	e.stats.Transmitted.Inc()
	e.complete(Packet{Words: e.cur.payload})
}

func (e *Ethernet) complete(pkt Packet) {
	done := e.cur.onDone
	e.cur = etherOp{}
	e.busy = false
	e.stats.Interrupts.Inc()
	e.bus.Interrupt(e.engine.Port(), 0)
	if done != nil {
		done(pkt)
	}
}
