// Package net models the shared 10 Mbit/s Ethernet segment that connects
// the DEQNA controllers of several Firefly machines (§3: "The Firefly
// communicates with other Fireflies ... over the Ethernet"). A Segment is
// a single half-duplex wire: one frame serializes at a time at one
// longword per 32 bus cycles (32 bits at 10 Mbit/s, one bit per 100 ns
// cycle), stations defer while the wire is busy, and simultaneous
// transmission attempts collide and retry under truncated binary
// exponential backoff, exactly one seeded random draw per colliding
// station per collision.
//
// Determinism contract: the segment is stepped from a single cluster
// clock, stations are always scanned in attachment order, and every
// backoff draw comes from the segment's own seeded stream, so a cluster
// run is byte-identical per seed — frame order, collision schedule,
// event stream, and counters. See DESIGN.md, "Cluster networking".
package net

import (
	"fmt"

	"firefly/internal/obs"
	"firefly/internal/sim"
	"firefly/internal/stats"
)

// Config tunes the wire. The defaults are the 10 Mbit/s Ethernet the
// Firefly shipped with.
type Config struct {
	// WordCycles is the serialization pace: bus cycles per longword on
	// the wire (default 32: 32 bits at one bit per 100 ns cycle).
	WordCycles uint64
	// GapCycles is the interframe gap the wire enforces after every frame
	// (default 96: the Ethernet 9.6 µs gap, 96 bit times).
	GapCycles uint64
	// SlotCycles is the collision backoff slot (default 512: the Ethernet
	// slot time of 512 bit times).
	SlotCycles uint64
	// MaxAttempts bounds transmission attempts per frame before the
	// station gives up and reports the frame aborted (default 16).
	MaxAttempts int
	// MinFrameWords is the smallest frame a station may Send (default 1).
	// Raising it tightens EventHorizon: no frame sent after "now" can
	// finish serializing sooner than MinFrameWords*WordCycles later, which
	// is what lets the cluster run machines ahead of the wire in windows.
	// The cluster sets it to the RPC transport's header size.
	MinFrameWords int
	// Seed drives the backoff stream (0 becomes 1).
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.WordCycles == 0 {
		c.WordCycles = 32
	}
	if c.GapCycles == 0 {
		c.GapCycles = 96
	}
	if c.SlotCycles == 0 {
		c.SlotCycles = 512
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 16
	}
	if c.MinFrameWords == 0 {
		c.MinFrameWords = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Frame is one Ethernet frame in flight. Dst is a station number, or
// Broadcast for delivery to every station except the sender. Words are
// immutable from the sender's transmit DMA onward: the segment hands the
// same slice to every receiver and to the bridge, and no one writes it.
type Frame struct {
	Src, Dst int
	Words    []uint32
}

// Broadcast as a Frame.Dst delivers to every attached station but the
// sender.
const Broadcast = -1

// Handler receives frames delivered to a station.
type Handler func(Frame)

// FaultInjector injects receive-side frame drops (a CRC error on the
// wire, a receiver overrun). It is consulted once per delivery; the
// sender has already seen the frame leave the wire successfully, so
// recovery is the transport protocol's job. fault.Plan implements it.
type FaultInjector interface {
	FrameDrop() bool
}

// Stats counts segment activity.
type Stats struct {
	Frames      stats.Counter // frames fully serialized onto the wire
	Delivered   stats.Counter // frame deliveries (broadcast counts each)
	Dropped     stats.Counter // deliveries lost to injected drops
	Unheard     stats.Counter // deliveries to stations with no handler
	Collisions  stats.Counter // collision events (any number of stations)
	Deferrals   stats.Counter // frames that waited for a busy wire
	Aborted     stats.Counter // frames abandoned after MaxAttempts
	WordsOnWire stats.Counter
	BusyCycles  stats.Counter
}

// txFrame is one queued transmission.
type txFrame struct {
	frame    Frame
	done     func(ok bool)
	attempts int
	deferred bool
}

// Station is one attachment point on the segment.
type Station struct {
	seg          *Segment
	id           int
	handler      Handler
	queue        sim.FIFO[txFrame]
	backoffUntil sim.Cycle
}

// ID returns the station number.
func (s *Station) ID() int { return s.id }

// Pending returns the number of frames queued for transmission.
func (s *Station) Pending() int { return s.queue.Len() }

// Send queues a frame for transmission. done (optional) runs when the
// frame has left the wire (ok) or was abandoned after MaxAttempts
// collisions (!ok). The station keeps the words slice, and so does every
// receiver it reaches: the sender must never write it again.
func (s *Station) Send(f Frame, done func(ok bool)) {
	if len(f.Words) == 0 {
		panic("net: empty frame")
	}
	if len(f.Words) < s.seg.cfg.MinFrameWords {
		panic(fmt.Sprintf("net: frame of %d words below the segment minimum of %d",
			len(f.Words), s.seg.cfg.MinFrameWords))
	}
	if f.Dst != Broadcast && (f.Dst < 0 || f.Dst >= len(s.seg.stations)) {
		panic(fmt.Sprintf("net: frame to unknown station %d", f.Dst))
	}
	f.Src = s.id
	s.queue.Push(txFrame{frame: f, done: done})
	s.seg.wake = 0
}

// Segment is the shared wire.
type Segment struct {
	clock *sim.Clock
	cfg   Config
	rng   *sim.Rand

	stations  []*Station
	cur       txFrame // the frame on the wire, while busy
	busy      bool
	curSrc    int
	busySince sim.Cycle // when cur seized the wire
	busyTill  sim.Cycle
	idleAt    sim.Cycle
	// wake caches NextEvent while the wire is idle so per-cycle Steps
	// through interframe gaps and backoff windows are one compare. Zero
	// means unknown (recompute); Send resets it.
	wake sim.Cycle

	inj    FaultInjector
	tracer *obs.Tracer
	stats  Stats
}

// NewSegment builds a segment on the given (cluster) clock.
func NewSegment(clock *sim.Clock, cfg Config) *Segment {
	cfg = cfg.withDefaults()
	return &Segment{
		clock: clock,
		cfg:   cfg,
		rng:   sim.NewRand(cfg.Seed*0x9e3779b97f4a7c15 + 0xe7e),
	}
}

// Attach adds a station with the given receive handler (nil is allowed;
// frames delivered to it count as Unheard).
func (s *Segment) Attach(h Handler) *Station {
	st := &Station{seg: s, id: len(s.stations), handler: h}
	s.stations = append(s.stations, st)
	return st
}

// Stations returns the number of attached stations.
func (s *Segment) Stations() int { return len(s.stations) }

// Station returns station i.
func (s *Segment) Station(i int) *Station { return s.stations[i] }

// SetFaultInjector installs a receive-side drop injector (nil disables).
func (s *Segment) SetFaultInjector(inj FaultInjector) { s.inj = inj }

// SetTracer points the segment's emission sites at tr (nil disables).
func (s *Segment) SetTracer(tr *obs.Tracer) { s.tracer = tr }

// Tracer returns the installed tracer, or nil.
func (s *Segment) Tracer() *obs.Tracer { return s.tracer }

// Stats returns a snapshot of the segment counters. BusyCycles covers
// every finished frame and the time the frame still on the wire has held
// it so far.
func (s *Segment) Stats() Stats {
	st := s.stats
	if s.busy {
		st.BusyCycles.Add(uint64(s.clock.Now() - s.busySince))
	}
	return st
}

// Utilization returns the fraction of elapsed cycles the wire was busy.
func (s *Segment) Utilization() float64 {
	now := uint64(s.clock.Now())
	if now == 0 {
		return 0
	}
	return float64(s.Stats().BusyCycles.Value()) / float64(now)
}

// RegisterStats names the segment counters in a registry.
func (s *Segment) RegisterStats(r *stats.Registry) {
	r.RegisterCounter("net.frames", &s.stats.Frames)
	r.RegisterCounter("net.delivered", &s.stats.Delivered)
	r.RegisterCounter("net.dropped", &s.stats.Dropped)
	r.RegisterCounter("net.unheard", &s.stats.Unheard)
	r.RegisterCounter("net.collisions", &s.stats.Collisions)
	r.RegisterCounter("net.deferrals", &s.stats.Deferrals)
	r.RegisterCounter("net.aborted", &s.stats.Aborted)
	r.RegisterCounter("net.words_on_wire", &s.stats.WordsOnWire)
	r.Register("net.busy_cycles", func() uint64 { return s.Stats().BusyCycles.Value() })
}

// emit sends a segment event to the tracer, if one is installed.
func (s *Segment) emit(kind obs.Kind, unit int, a, b uint64) {
	if s.tracer == nil {
		return
	}
	s.tracer.Emit(obs.Event{
		Cycle: uint64(s.clock.Now()),
		Kind:  kind,
		Unit:  int32(unit),
		A:     a,
		B:     b,
	})
}

// NextEvent reports the earliest future cycle at which Step may change
// the segment's state: the end of the frame being serialized, or — wire
// idle — the first cycle a queued station can contend (the later of the
// interframe gap and its backoff expiry). A segment with no frame on the
// wire and no frame queued has no events until a new Send.
func (s *Segment) NextEvent(now sim.Cycle) sim.Cycle {
	if s.busy {
		if s.busyTill > now {
			return s.busyTill
		}
		return now + 1
	}
	ev := sim.Never
	for _, st := range s.stations {
		if st.queue.Len() == 0 {
			continue
		}
		ev = min(ev, s.contendAt(st, now))
	}
	return ev
}

// contendAt is the first cycle after now at which st's head frame may
// contend for the wire: once its own backoff and the interframe gap have
// both passed.
func (s *Segment) contendAt(st *Station, now sim.Cycle) sim.Cycle {
	ready := now + 1
	if st.backoffUntil > ready {
		ready = st.backoffUntil
	}
	if s.idleAt > ready {
		ready = s.idleAt
	}
	return ready
}

// EventHorizon reports a lower bound on the first future cycle at which
// the segment may call out of itself: deliver a frame to a station
// handler, run a done(true) completion, or run a done(false) abort. It
// may under-report (the actual first call-out can be later, e.g. when a
// collision pushes a completion back) but never over-reports, so the
// cluster can run every machine independently through cycles strictly
// before the horizon — no wire event can touch them there. Frames sent
// after now are not covered; the caller bounds those with SendHorizon.
func (s *Segment) EventHorizon(now sim.Cycle) sim.Cycle {
	h := sim.Never
	if s.busy {
		// Delivery plus done(true) fire at the end of serialization.
		if s.busyTill > now {
			h = s.busyTill
		} else {
			return now + 1
		}
	}
	for _, st := range s.stations {
		if st.queue.Len() == 0 {
			continue
		}
		// The head frame cannot seize the wire before it may contend and
		// the current frame has passed.
		ready := s.contendAt(st, now)
		if s.busy && s.busyTill > ready {
			ready = s.busyTill
		}
		tx := st.queue.Front()
		// Earliest completion: seize at ready, serialize without collision.
		ev := ready + sim.Cycle(uint64(len(tx.frame.Words))*s.cfg.WordCycles)
		// Earliest abort: collide at ready and at every backoff expiry
		// after it; each backoff is at least one slot.
		rem := s.cfg.MaxAttempts - tx.attempts
		if rem < 1 {
			rem = 1
		}
		abort := ready + sim.Cycle(uint64(rem-1)*s.cfg.SlotCycles)
		ev = min(ev, abort)
		h = min(h, ev)
	}
	return h
}

// SendHorizon bounds the frames EventHorizon does not cover: a frame Sent
// at cycle t makes no call-out (delivery, done, abort) before t plus
// SendHorizon. No frame finishes sooner than MinFrameWords*WordCycles
// after it first contends, and none aborts sooner than MaxAttempts-1
// backoff slots after its first collision.
func (s *Segment) SendHorizon() sim.Cycle {
	return sim.Cycle(min(uint64(s.cfg.MinFrameWords)*s.cfg.WordCycles,
		uint64(s.cfg.MaxAttempts-1)*s.cfg.SlotCycles))
}

// Step advances the wire one cycle. The cluster must call it once per
// cluster cycle, before stepping the machines.
func (s *Segment) Step() {
	if !s.busy && s.wake > s.clock.Now() {
		return
	}
	s.wake = 0
	s.step()
	if !s.busy {
		s.wake = s.NextEvent(s.clock.Now())
	}
}

// step is the slow path: the full carrier-sense/contention state machine.
func (s *Segment) step() {
	now := s.clock.Now()
	if s.busy {
		// Carrier sense: anyone with a frame ready is deferring to the
		// transmission in progress.
		for _, st := range s.stations {
			if st.id != s.curSrc && st.queue.Len() > 0 {
				st.queue.Front().deferred = true
			}
		}
		if now >= s.busyTill {
			s.finishFrame()
		}
		return
	}
	if now < s.idleAt {
		return
	}
	// Wire idle: every station with a frame ready (not backing off)
	// contends this cycle. Scanned in attachment order for determinism.
	var first *Station
	n := 0
	for _, st := range s.stations {
		if st.queue.Len() > 0 && now >= st.backoffUntil {
			if first == nil {
				first = st
			}
			n++
		}
	}
	switch {
	case n == 0:
		return
	case n == 1:
		s.begin(first)
	default:
		s.collide(now)
	}
	// A station that was ready while another held or seized the wire has
	// deferred; mark the heads so the deferral is counted once per frame.
	if s.busy {
		for _, st := range s.stations {
			if st != s.stations[s.curSrc] && st.queue.Len() > 0 {
				st.queue.Front().deferred = true
			}
		}
	}
}

// begin seizes the wire for the station's head frame.
func (s *Segment) begin(st *Station) {
	s.cur = st.queue.Pop()
	s.busy = true
	s.curSrc = st.id
	tx := &s.cur
	words := uint64(len(tx.frame.Words))
	s.busySince = s.clock.Now()
	s.busyTill = s.busySince + sim.Cycle(words*s.cfg.WordCycles)
	s.stats.WordsOnWire.Add(words)
	if tx.deferred {
		s.stats.Deferrals.Inc()
	}
	s.emit(obs.KindNetTx, st.id, words, uint64(uint32(tx.frame.Dst)))
}

// maxBackoffExp caps the backoff exponent: the truncated binary
// exponential backoff of the Ethernet standard.
const maxBackoffExp = 10

// collide backs off every contending station: each draws one seeded
// backoff of r slots, r uniform in [0, 2^min(attempts, maxBackoffExp)),
// and a frame that has collided MaxAttempts times is abandoned.
func (s *Segment) collide(now sim.Cycle) {
	s.stats.Collisions.Inc()
	for _, st := range s.stations {
		if st.queue.Len() == 0 || now < st.backoffUntil {
			continue
		}
		tx := st.queue.Front()
		tx.attempts++
		if tx.attempts >= s.cfg.MaxAttempts {
			attempts, done := tx.attempts, st.queue.Pop().done
			s.stats.Aborted.Inc()
			s.emit(obs.KindNetDrop, st.id, uint64(attempts), dropAborted)
			if done != nil {
				done(false)
			}
			continue
		}
		exp := min(tx.attempts, maxBackoffExp)
		slots := uint64(s.rng.Intn(1 << exp))
		backoff := (slots + 1) * s.cfg.SlotCycles
		st.backoffUntil = now + sim.Cycle(backoff)
		s.emit(obs.KindNetCollision, st.id, uint64(tx.attempts), backoff)
	}
	// The jam signal occupies the wire briefly; model it as one gap.
	s.idleAt = now + sim.Cycle(s.cfg.GapCycles)
}

// Drop reason codes (the B argument of KindNetDrop).
const (
	dropInjected uint64 = 0 // injected receive-side drop
	dropUnheard  uint64 = 1 // no handler at the destination
	dropAborted  uint64 = 2 // transmit abandoned after MaxAttempts
)

// finishFrame delivers the frame that just finished serializing.
func (s *Segment) finishFrame() {
	tx := s.cur
	s.cur, s.busy = txFrame{}, false
	now := s.clock.Now()
	s.idleAt = now + sim.Cycle(s.cfg.GapCycles)
	s.stats.BusyCycles.Add(uint64(now - s.busySince))
	s.stats.Frames.Inc()
	if tx.frame.Dst == Broadcast {
		for _, st := range s.stations {
			if st.id != tx.frame.Src {
				s.deliver(st, tx.frame)
			}
		}
	} else {
		s.deliver(s.stations[tx.frame.Dst], tx.frame)
	}
	if tx.done != nil {
		tx.done(true)
	}
}

// deliver hands the frame to one station, subject to injected drops.
func (s *Segment) deliver(st *Station, f Frame) {
	if s.inj != nil && s.inj.FrameDrop() {
		s.stats.Dropped.Inc()
		s.emit(obs.KindNetDrop, st.id, uint64(len(f.Words)), dropInjected)
		return
	}
	if st.handler == nil {
		s.stats.Unheard.Inc()
		s.emit(obs.KindNetDrop, st.id, uint64(len(f.Words)), dropUnheard)
		return
	}
	s.stats.Delivered.Inc()
	s.emit(obs.KindNetRx, st.id, uint64(len(f.Words)), uint64(f.Src))
	st.handler(f)
}
