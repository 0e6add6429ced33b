package display

import (
	"fmt"

	"firefly/internal/mbus"
	"firefly/internal/memory"
	"firefly/internal/sim"
	"firefly/internal/stats"
)

// Frame buffer geometry: "a one-megapixel frame buffer constructed with
// video RAMs. Three-quarters of the frame buffer holds the display bitmap,
// while the rest is available to the display manager" (§5).
const (
	FrameWidth    = 1024
	FrameHeight   = 1024
	VisibleHeight = 768
)

// Microengine timing. The 29116 runs at 10 MHz — one microcycle per
// 100 ns bus cycle. Large-area painting sustains 16 megapixels/second
// (0.625 microcycles per pixel) and the font-cache path paints about
// 20,000 10-point characters per second (500 microcycles per character).
const (
	pixelCyclesNum   = 5 // cycles per pixel = 5/8
	pixelCyclesDen   = 8
	charCycles       = 500
	fetchCycles      = 20     // command decode overhead
	defaultPollEvery = 500    // 50 µs doorbell polling
	depositEvery     = 166667 // 60 Hz keyboard/mouse deposit
)

// The controller's words in main memory. DoorbellAddr counts commands
// submitted and StatusAddr those completed, written after each command:
// the host sees the queue drained when the two are equal.
const (
	DoorbellAddr mbus.Addr = 0x7000
	StatusAddr   mbus.Addr = 0x7004
	depositAddr  mbus.Addr = 0x7100 // 60 Hz mouse/keyboard deposit (6 words)
)

// Command is one work-queue entry.
type Command interface{ isCommand() }

// CmdFill paints a rectangle with a source-free op (OpSet/OpClear/
// OpInvert).
type CmdFill struct {
	R  Rect
	Op RasterOp
}

// CmdBlt copies within the frame buffer.
type CmdBlt struct {
	R      Rect
	SX, SY int
	Op     RasterOp
}

// CmdBltFromMemory loads rectangle R from Firefly main memory at Addr
// (row-major, 32 pixels per word, rows padded to word boundaries).
type CmdBltFromMemory struct {
	R    Rect
	Addr mbus.Addr
}

// CmdBltToMemory stores rectangle R into main memory at Addr.
type CmdBltToMemory struct {
	R    Rect
	Addr mbus.Addr
}

// CmdPaintString paints text at (X, Y) via the font cache.
type CmdPaintString struct {
	S    string
	X, Y int
	Op   RasterOp
}

func (CmdFill) isCommand()          {}
func (CmdBlt) isCommand()           {}
func (CmdBltFromMemory) isCommand() {}
func (CmdBltToMemory) isCommand()   {}
func (CmdPaintString) isCommand()   {}

// Stats counts controller activity.
type Stats struct {
	Commands      stats.Counter
	PixelsPainted stats.Counter
	CharsPainted  stats.Counter
	PollReads     stats.Counter
	MemoryWords   stats.Counter // blit words read or written without a fault
	Deposits      stats.Counter
	// Errors counts operations that faulted after the bus spent its
	// retry budget (mbus.Bus.SetFaultPolicy): the command, doorbell
	// poll, status write or input deposit they belonged to is aborted.
	Errors stats.Counter
}

// Config tunes the controller.
type Config struct {
	// PollCycles is the doorbell polling interval (default 500 = 50 µs).
	PollCycles uint64
}

func (c Config) withDefaults() Config {
	if c.PollCycles == 0 {
		c.PollCycles = defaultPollEvery
	}
	return c
}

// mdcPhase is the microengine state.
type mdcPhase uint8

const (
	mdcIdle mdcPhase = iota
	mdcPollWait
	mdcFetch
	mdcExec
	mdcMemIO
	mdcStatus
)

// MDC is the monochrome display controller. It owns an MBus port for its
// DMA (queue polling, memory blits, input deposits) and a host-side frame
// buffer.
type MDC struct {
	cfg   Config
	clock *sim.Clock
	mem   *memory.System
	frame *Bitmap
	font  *Font // the resident font cache: synthetic 8x12

	queue     sim.FIFO[Command]
	submitted uint32
	completed uint32

	phase     mdcPhase
	busyUntil sim.Cycle
	nextPoll  sim.Cycle
	cur       Command

	// memory blit progress
	memAddr  mbus.Addr
	memRect  Rect
	memRow   int
	memWord  int
	memWrite bool
	rowWords int

	// deposit state
	nextDeposit sim.Cycle
	mouseX      int
	mouseY      int
	keys        [4]uint32
	depositPos  int

	// line is the controller's request line; onBus holds from raising
	// an operation on it until its BusComplete.
	line     mbus.Line
	onBus    bool
	lastRead uint32

	stats Stats
}

// New creates an MDC attached to the bus.
func New(clock *sim.Clock, bus *mbus.Bus, mem *memory.System, cfg Config) *MDC {
	m := &MDC{
		cfg:         cfg.withDefaults(),
		clock:       clock,
		mem:         mem,
		frame:       NewBitmap(FrameWidth, FrameHeight),
		font:        SyntheticFont(12, 8),
		nextDeposit: sim.Cycle(depositEvery),
	}
	bus.Attach(m, nil, nil)
	return m
}

// Frame returns the frame buffer (visible rows 0..VisibleHeight-1).
func (m *MDC) Frame() *Bitmap { return m.frame }

// Font returns the resident font cache.
func (m *MDC) Font() *Font { return m.font }

// Stats returns a snapshot of the controller counters.
func (m *MDC) Stats() Stats { return m.stats }

// Completed returns the number of commands executed. It counts a command
// when execution ends, before the status write carries the new count to
// StatusAddr in memory; wait on that word to see what a host sees.
func (m *MDC) Completed() uint32 { return m.completed }

// Pending returns queued-but-unexecuted commands.
func (m *MDC) Pending() int { return m.queue.Len() }

// Submit appends a command to the work queue and rings the doorbell word
// in main memory with the cumulative submission count (the submitting
// CPU's store; its cost is charged to the caller's own reference stream).
func (m *MDC) Submit(cmd Command) {
	if cmd == nil {
		panic("display: nil command")
	}
	m.queue.Push(cmd)
	m.submitted++
	m.mem.Poke(DoorbellAddr, m.submitted)
}

// SetMouse updates the mouse position reported at the next deposit.
func (m *MDC) SetMouse(x, y int) { m.mouseX, m.mouseY = x, y }

// KeyDown and KeyUp update the unencoded keyboard bitmap.
func (m *MDC) KeyDown(code int) { m.setKey(code, true) }

// KeyUp releases a key.
func (m *MDC) KeyUp(code int) { m.setKey(code, false) }

func (m *MDC) setKey(code int, down bool) {
	if code < 0 || code >= 128 {
		panic(fmt.Sprintf("display: key code %d out of range", code))
	}
	mask := uint32(1) << uint(code%32)
	if down {
		m.keys[code/32] |= mask
	} else {
		m.keys[code/32] &^= mask
	}
}

// Step advances the microengine one cycle.
func (m *MDC) Step() {
	if m.onBus {
		return
	}
	now := m.clock.Now()

	// The 60 Hz input deposit preempts everything briefly.
	if now >= m.nextDeposit && m.depositPos == 0 && m.phase != mdcMemIO {
		m.depositPos = 1
	}
	if m.depositPos > 0 {
		m.stepDeposit()
		return
	}

	switch m.phase {
	case mdcIdle:
		if now >= m.nextPoll {
			m.raise(mbus.MRead, DoorbellAddr, 0)
			m.stats.PollReads.Inc()
			m.phase = mdcPollWait
		}
	case mdcPollWait:
		// Result arrived via BusComplete.
		if m.lastRead > uint32(m.completed) && m.queue.Len() > 0 {
			m.cur = m.queue.Pop()
			m.busyUntil = now + fetchCycles
			m.phase = mdcFetch
		} else {
			m.nextPoll = now + sim.Cycle(m.cfg.PollCycles)
			m.phase = mdcIdle
		}
	case mdcFetch:
		if now >= m.busyUntil {
			m.beginExec()
		}
	case mdcExec:
		if now >= m.busyUntil {
			m.finishCommand()
		}
	case mdcMemIO:
		m.stepMemIO()
	case mdcStatus:
		// Status write completed via BusComplete.
		m.phase = mdcIdle
		m.nextPoll = now // poll again immediately: queue may be nonempty
	}
}

// NextEvent implements machine.Device: sim.Never while a bus operation
// is raised or in flight (the bus's NextEvent covers it); the next cycle
// while an input deposit is in progress or the microengine is in a
// bus-driven phase (poll-wait, memory I/O, status); otherwise the
// earliest of the next doorbell poll (idle), the end of the current
// command's fetch or paint time, and the next 60 Hz deposit — never
// later than the first cycle Step would act.
func (m *MDC) NextEvent(now sim.Cycle) sim.Cycle {
	if m.onBus {
		return sim.Never
	}
	if m.depositPos > 0 {
		return now + 1
	}
	ev := m.nextDeposit
	switch m.phase {
	case mdcIdle:
		ev = min(ev, m.nextPoll)
	case mdcFetch, mdcExec:
		ev = min(ev, m.busyUntil)
	default:
		return now + 1
	}
	if ev <= now {
		return now + 1
	}
	return ev
}

func (m *MDC) beginExec() {
	switch cmd := m.cur.(type) {
	case CmdFill:
		n := Fill(m.frame, cmd.R, cmd.Op)
		m.stats.PixelsPainted.Add(uint64(n))
		m.busyUntil = m.clock.Now() + sim.Cycle(uint64(n)*pixelCyclesNum/pixelCyclesDen)
		m.phase = mdcExec
	case CmdBlt:
		n := BitBlt(m.frame, cmd.R, m.frame, cmd.SX, cmd.SY, cmd.Op)
		m.stats.PixelsPainted.Add(uint64(n))
		m.busyUntil = m.clock.Now() + sim.Cycle(uint64(n)*pixelCyclesNum/pixelCyclesDen)
		m.phase = mdcExec
	case CmdPaintString:
		adv := PaintString(m.frame, m.font, cmd.S, cmd.X, cmd.Y, cmd.Op)
		chars := uint64(len([]rune(cmd.S)))
		m.stats.CharsPainted.Add(chars)
		m.stats.PixelsPainted.Add(uint64(adv * m.font.Height))
		m.busyUntil = m.clock.Now() + sim.Cycle(chars*charCycles)
		m.phase = mdcExec
	case CmdBltFromMemory:
		m.startMemIO(cmd.R, cmd.Addr, false)
	case CmdBltToMemory:
		m.startMemIO(cmd.R, cmd.Addr, true)
	default:
		panic(fmt.Sprintf("display: unknown command %T", cmd))
	}
}

func (m *MDC) startMemIO(r Rect, addr mbus.Addr, toMemory bool) {
	// Clip to the frame buffer; memory layout is dense rows of the
	// clipped rectangle.
	r, _, _ = clip(m.frame, r, nil, 0, 0)
	if r.W <= 0 || r.H <= 0 {
		m.finishCommand()
		return
	}
	m.memRect = r
	m.memAddr = addr
	m.memRow = 0
	m.memWord = 0
	m.memWrite = toMemory
	m.rowWords = (r.W + 31) / 32
	m.phase = mdcMemIO
}

// stepMemIO moves one word per bus operation between memory and the frame
// buffer.
func (m *MDC) stepMemIO() {
	r := m.memRect
	if m.memRow >= r.H {
		m.stats.PixelsPainted.Add(uint64(r.W * r.H))
		m.finishCommand()
		return
	}
	addr := m.memAddr + mbus.Addr((m.memRow*m.rowWords+m.memWord)*4)
	if m.memWrite {
		var w uint32
		for bit := 0; bit < 32; bit++ {
			x := m.memWord*32 + bit
			if x < r.W && m.frame.Get(r.X+x, r.Y+m.memRow) != 0 {
				w |= 1 << (31 - uint(bit))
			}
		}
		m.raise(mbus.MWrite, addr, w)
	} else {
		m.raise(mbus.MRead, addr, 0)
	}
}

// applyMemWord stores a fetched word into the frame buffer.
func (m *MDC) applyMemWord(w uint32) {
	r := m.memRect
	for bit := 0; bit < 32; bit++ {
		x := m.memWord*32 + bit
		if x >= r.W {
			break
		}
		m.frame.Set(r.X+x, r.Y+m.memRow, int(w>>(31-uint(bit)))&1)
	}
}

func (m *MDC) advanceMemIO() {
	m.memWord++
	if m.memWord >= m.rowWords {
		m.memWord = 0
		m.memRow++
	}
}

func (m *MDC) finishCommand() {
	m.completed++
	m.stats.Commands.Inc()
	m.cur = nil
	m.raise(mbus.MWrite, StatusAddr, m.completed)
	m.phase = mdcStatus
}

// stepDeposit writes the 6-word input record: mouse X, mouse Y, and the
// 128-bit unencoded keyboard bitmap.
func (m *MDC) stepDeposit() {
	words := []uint32{
		uint32(int32(m.mouseX)), uint32(int32(m.mouseY)),
		m.keys[0], m.keys[1], m.keys[2], m.keys[3],
	}
	i := m.depositPos - 1
	if i >= len(words) {
		m.depositPos = 0
		m.nextDeposit += sim.Cycle(depositEvery)
		m.stats.Deposits.Inc()
		return
	}
	m.raise(mbus.MWrite, depositAddr+mbus.Addr(i*4), words[i])
	m.depositPos++
}

func (m *MDC) raise(op mbus.OpKind, addr mbus.Addr, data uint32) {
	m.onBus = true
	m.line.Raise(mbus.Request{Op: op, Addr: addr, Data: data}, 0)
}

// AwaitsBus reports whether an operation is on the controller's request
// line or in flight.
func (m *MDC) AwaitsBus() bool { return m.onBus }

// BusAttach implements mbus.Initiator.
func (m *MDC) BusAttach(l mbus.Line) { m.line = l }

// BusComplete implements mbus.Initiator.
func (m *MDC) BusComplete(res mbus.Result) {
	m.onBus = false
	if res.Fault != mbus.FaultNone {
		m.busFault()
		return
	}
	if m.depositPos > 0 {
		return // an input deposit word
	}
	if m.phase == mdcMemIO {
		if res.Op == mbus.MRead {
			m.applyMemWord(res.Data)
		}
		m.stats.MemoryWords.Inc()
		m.advanceMemIO()
	} else if res.Op == mbus.MRead {
		m.lastRead = res.Data
	}
}

// busFault abandons an operation that faulted after the bus spent its
// retry budget, and what it belonged to: a blit word aborts its command,
// a doorbell poll waits for the next poll, and a status write or input
// deposit is dropped. A faulted operation had no effect, so nothing of
// it is painted or counted.
func (m *MDC) busFault() {
	now := m.clock.Now()
	m.stats.Errors.Inc()
	switch {
	case m.depositPos > 0:
		m.depositPos = 0
		m.nextDeposit += sim.Cycle(depositEvery)
	case m.phase == mdcPollWait:
		m.phase = mdcIdle
		m.nextPoll = now + sim.Cycle(m.cfg.PollCycles)
	case m.phase == mdcMemIO:
		m.finishCommand()
	}
}

var _ mbus.Initiator = (*MDC)(nil)
