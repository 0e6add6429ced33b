package rpc

import (
	"fmt"

	"firefly/internal/machine"
	"firefly/internal/mbus"
	"firefly/internal/obs"
	"firefly/internal/qbus"
	"firefly/internal/sim"
	"firefly/internal/stats"
	"firefly/internal/topaz"
)

// This file is the runtime half of the package: where transport.go
// computes the §6 pipeline analytically, Node actually carries calls
// over a simulated machine — message words written into host memory
// are DMA'd out by the DEQNA, serialized on the shared Ethernet segment
// (internal/net), DMA'd into the server's memory, reassembled in
// fragment order, dispatched onto Topaz worker threads, and answered
// with ID-matched replies. The client retransmits unanswered calls with
// exponential backoff and the server deduplicates by call ID, so the
// transport delivers each call exactly once even over a lossy wire.

// NodeConfig tunes one machine's RPC runtime.
type NodeConfig struct {
	// Costs carries the stage costs of the analytic pipeline; the runtime
	// charges the same client and server cycles, so the cycle-level
	// cluster and transport.Run stay mutually calibrated (the
	// differential test holds them within 15%).
	Costs Config
	// Workers is the server worker-thread pool size (default 4). Idle
	// workers, like callers awaiting their reply, block on a condition
	// variable that the receive path signals.
	Workers int
	// DispatchInstr is the slice of each stage executed as real
	// instructions against the thread's working set — producing genuine
	// cache and bus traffic — rather than as a calibrated timer sleep
	// (default 16). Its nominal cost is deducted from the sleep.
	DispatchInstr uint64
	// RetransmitCycles is the base client retransmission timeout
	// (default 250_000 = 25 ms); it doubles per attempt.
	RetransmitCycles uint64
	// MaxQueue bounds the server dispatch queue — admission control. A
	// call arriving with the queue at its bound is shed: answered
	// immediately from the receive path with a rejection reply
	// (Proc=ShedProc) instead of being queued, so an overloaded server's
	// latency stays bounded instead of collapsing under an ever-growing
	// backlog. 0 (the default) queues without bound.
	MaxQueue int
	// ProcService charges extra server worker cycles per request
	// procedure number, on top of the payload-derived cost — this is how
	// the traffic engine gives its request classes (file read, compile
	// job, display burst) distinct service demands on one server.
	ProcService map[uint16]uint64
	// Kernel tunes the node's Topaz kernel (zero: defaults with the
	// machine's seed).
	Kernel topaz.Config
}

func (c NodeConfig) withDefaults(seed uint64) NodeConfig {
	c.Costs = c.Costs.withDefaults()
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.DispatchInstr == 0 {
		c.DispatchInstr = 16
	}
	if c.RetransmitCycles == 0 {
		c.RetransmitCycles = 250_000
	}
	if c.Kernel.Seed == 0 {
		c.Kernel.Seed = seed
	}
	if c.Kernel.Dispatch == nil {
		c.Kernel.Dispatch = topaz.MigrationAverse{}
	}
	return c
}

// NodeStats counts runtime activity. Client and server counters are
// both present; a node may play either or both roles.
type NodeStats struct {
	CallsIssued    stats.Counter
	CallsCompleted stats.Counter
	CallsFailed    stats.Counter // retransmit budget exhausted
	Retransmits    stats.Counter
	BytesMoved     stats.Counter // payload bytes of completed calls
	ShedReplies    stats.Counter // calls answered with a rejection (client side)

	CallsReceived stats.Counter // distinct calls accepted by the server
	Served        stats.Counter // replies sent (excluding dedup re-sends)
	CallsShed     stats.Counter // calls rejected by admission control (MaxQueue)
	ServiceCycles stats.Counter // worker cycles spent in service (utilization numerator)
	DupCalls      stats.Counter // duplicate calls absorbed by ID dedup
	DupReplies    stats.Counter // duplicate/stale replies at the client

	FragDrops   stats.Counter // fragments discarded (out of order, stale)
	BadFrames   stats.Counter // frames that failed transport parsing
	BadMessages stats.Counter // reassembled messages that failed Unmarshal
	BadPayload  stats.Counter // payload contents that failed verification
	RxOverruns  stats.Counter // receive DMA aborts (frame lost in the NIC)
	Misrouted   stats.Counter // frames addressed to another station
}

// DefaultProc is the remote procedure number used by the built-in caller
// threads and generators when the caller does not care.
const DefaultProc uint16 = 7

// ShedProc is the reply procedure number that marks a rejection: the
// server's admission control answered the call without serving it.
const ShedProc uint16 = 0xffff

// CallOutcome is delivered to a call's completion callback: exactly one
// of the normal, shed, or failed dispositions.
type CallOutcome struct {
	ID      uint32
	Latency sim.Cycle // issue to disposition, in cycles
	Bytes   int       // request payload bytes
	Shed    bool      // the server rejected the call (admission control)
	Failed  bool      // the retransmit budget ran out with no reply
}

// desc describes a message the node sends. Its payload is always the
// deterministic pattern of seed, so the description alone regenerates
// the message's words: for its first transmission, a retransmit, or a
// duplicate's re-sent reply.
type desc struct {
	kind  MsgKind
	id    uint32
	proc  uint16
	seed  uint32
	bytes int // payload bytes
}

// callDesc describes call id.
func callDesc(id uint32, proc uint16, payloadBytes int) desc {
	return desc{kind: Call, id: id, proc: proc, seed: id, bytes: payloadBytes}
}

// replyDesc describes the reply to call id: a rejection (Proc=ShedProc)
// if the call was shed, the procedure's result otherwise.
func replyDesc(id uint32, proc uint16, shed bool) desc {
	if shed {
		return desc{kind: Reply, id: id, proc: ShedProc, seed: id ^ 0xabcd, bytes: 4}
	}
	return desc{kind: Reply, id: id, proc: proc, seed: id ^ 0xabcd, bytes: replyBytes}
}

// call is one outstanding client call. Records recycle through the
// node's free list: an Issue call's at its disposition, a caller
// thread's once the thread has finished with it.
type call struct {
	msg      desc
	dst      int
	started  sim.Cycle
	deadline sim.Cycle
	attempts int
	caller   *topaz.CondVar // the waiting caller thread's; nil from Issue
	done     bool
	failed   bool
	shed     bool
	latency  sim.Cycle
	onDone   func(CallOutcome)
}

// job is one accepted call waiting for, or in, service.
type job struct {
	src   int
	id    uint32
	proc  uint16
	bytes int // request payload bytes
}

// served is a server dedup entry: a call this node accepted, and whether
// it has been answered. It holds no payload and no frames; a duplicate
// of an answered call gets the reply regenerated from replyDesc.
type served struct {
	proc    uint16
	replied bool
	shed    bool
}

// reasm accumulates in-order fragments of one message. Buffers recycle
// through the node's free list, emptied on release.
type reasm struct {
	data  []byte
	next  int
	count int
	total int
}

// Node is the RPC runtime of one Firefly in a cluster: the DEQNA and its
// DMA engine, a Topaz kernel, the client transport (callers, timers,
// retransmission) and the server transport (reassembly, dedup, worker
// dispatch). It is stepped once per machine cycle as a machine device.
type Node struct {
	station int
	m       *machine.Machine
	k       *topaz.Kernel
	clock   *sim.Clock
	cfg     NodeConfig

	maps   *qbus.MapRegisters
	engine *qbus.Engine
	eth    *qbus.Ethernet

	cliMu  *topaz.Mutex   // the client station: serializes marshal + finish
	connMu *topaz.Mutex   // the server station: serializes per-connection work
	work   *topaz.CondVar // signalled by serverAccept for idle workers

	nextID       uint32
	calls        []*call // outstanding, in issue order: the retransmit timer list
	byID         map[uint32]*call
	nextDeadline sim.Cycle
	freeCalls    []*call
	expired      []*call // calls Step fails, settled after it compacts calls

	// txSlot and rxSlot are the next slots to fill; rxDoneSlot is the
	// slot of the oldest receive still in the DEQNA, which completes
	// receives in the order they were queued. rxDone is the receive
	// completion, bound once.
	txSlot, rxSlot, rxDoneSlot int
	rxDone                     func(qbus.Packet)
	hdr                        [headerBytes]byte // the header of the message being written

	srvQueue   sim.FIFO[job]
	dedup      map[uint64]served
	reasms     map[uint64]*reasm
	freeReasms []*reasm
	queuePeak  int

	stats   NodeStats
	latHist stats.LogHist
}

// NewNode builds the runtime on a machine, as the given station. It
// creates the node's QBus DMA engine, a DEQNA transmitting on medium, and
// a Topaz kernel, registers them as machine devices, and maps the NIC
// buffer rings.
func NewNode(m *machine.Machine, station int, medium qbus.Medium, cfg NodeConfig) *Node {
	cfg = cfg.withDefaults(m.Config().Seed)
	n := &Node{
		station: station,
		m:       m,
		clock:   m.Clock(),
		cfg:     cfg,
		maps:    &qbus.MapRegisters{},
		byID:    make(map[uint32]*call),
		dedup:   make(map[uint64]served),
		reasms:  make(map[uint64]*reasm),
	}
	n.rxDone = n.received
	if uint64(bufferBase)+slots*slotBytes > m.Memory().Bytes() {
		panic("rpc: NIC buffer region exceeds physical memory")
	}
	n.engine = qbus.NewEngine(n.clock, m.Bus(), n.maps, 0)
	n.eth = qbus.NewEthernet(m.Bus(), n.engine, medium)
	n.maps.MapRange(qWindow, bufferBase, slots*slotBytes)
	m.AddDevice(n.engine)
	m.AddDevice(n.eth)
	m.AddDevice(n)
	n.k = topaz.NewKernel(m, cfg.Kernel)
	n.k.Reserve(bufferBase)
	n.cliMu = n.k.NewMutex("rpc-client")
	n.connMu = n.k.NewMutex("rpc-conn")
	n.work = n.k.NewCond("rpc-work")
	if plan := m.Faults(); plan != nil {
		n.engine.SetFaultInjector(plan)
	}
	n.registerStats()
	return n
}

// The NIC buffer region: slots 2 KB buffers, split evenly between the
// transmit and receive rings, at physical bufferBase (reserved from the
// Topaz address spaces) and mapped at QBus address qWindow.
const (
	slotBytes            = 2048
	slots                = 64
	bufferBase mbus.Addr = 0xE00000
	qWindow              = 0x200000
)

// maxRetransmits bounds retransmissions before a call fails.
const maxRetransmits = 8

// replyBytes is the server's reply payload size.
const replyBytes = 16

// Machine returns the underlying machine.
func (n *Node) Machine() *machine.Machine { return n.m }

// Kernel returns the node's Topaz kernel.
func (n *Node) Kernel() *topaz.Kernel { return n.k }

// Station returns the node's station number.
func (n *Node) Station() int { return n.station }

// Stats returns a snapshot of the runtime counters.
func (n *Node) Stats() NodeStats { return n.stats }

// Outstanding returns the number of client calls awaiting replies.
func (n *Node) Outstanding() int { return len(n.byID) }

// QueuePeak returns the deepest server backlog seen so far.
func (n *Node) QueuePeak() int { return n.queuePeak }

// MeanLatencyUS returns the mean completed-call latency in microseconds.
func (n *Node) MeanLatencyUS() float64 {
	c := n.latHist.Count()
	if c == 0 {
		return 0
	}
	return float64(n.latHist.Sum()) / float64(c) * (sim.CycleNS / 1000.0)
}

// CyclesToUS converts a cycle count (histogram bounds, latencies) to
// microseconds.
func CyclesToUS(c uint64) float64 { return float64(c) * sim.CycleNS / 1000.0 }

// MergeLatencies merges the latency histograms of several nodes into one
// fleet-wide distribution.
func MergeLatencies(nodes ...*Node) *stats.LogHist {
	var h stats.LogHist
	for _, n := range nodes {
		h.Merge(&n.latHist)
	}
	return &h
}

// registerStats names the runtime counters in the machine registry.
func (n *Node) registerStats() {
	r := n.m.Registry()
	r.RegisterCounter("rpc.calls_issued", &n.stats.CallsIssued)
	r.RegisterCounter("rpc.calls_completed", &n.stats.CallsCompleted)
	r.RegisterCounter("rpc.calls_failed", &n.stats.CallsFailed)
	r.RegisterCounter("rpc.retransmits", &n.stats.Retransmits)
	r.RegisterCounter("rpc.bytes_moved", &n.stats.BytesMoved)
	r.RegisterCounter("rpc.shed_replies", &n.stats.ShedReplies)
	r.RegisterCounter("rpc.calls_received", &n.stats.CallsReceived)
	r.RegisterCounter("rpc.served", &n.stats.Served)
	r.RegisterCounter("rpc.calls_shed", &n.stats.CallsShed)
	r.RegisterCounter("rpc.service_cycles", &n.stats.ServiceCycles)
	r.RegisterCounter("rpc.dup_calls", &n.stats.DupCalls)
	r.RegisterCounter("rpc.dup_replies", &n.stats.DupReplies)
	r.RegisterCounter("rpc.frag_drops", &n.stats.FragDrops)
	r.RegisterCounter("rpc.bad_frames", &n.stats.BadFrames)
	r.RegisterCounter("rpc.bad_messages", &n.stats.BadMessages)
	r.RegisterCounter("rpc.bad_payload", &n.stats.BadPayload)
	r.RegisterCounter("rpc.rx_overruns", &n.stats.RxOverruns)
	r.RegisterCounter("rpc.misrouted", &n.stats.Misrouted)
}

// emit sends an event to the machine's tracer, if one is installed.
func (n *Node) emit(kind obs.Kind, a, b uint64) {
	tr := n.m.Tracer()
	if tr == nil {
		return
	}
	tr.Emit(obs.Event{
		Cycle: uint64(n.clock.Now()),
		Kind:  kind,
		Unit:  int32(n.station),
		A:     a,
		B:     b,
	})
}

// nominalInstrCycles is the expected cost of the real-instruction slice,
// deducted from the calibrated sleeps so stage totals match Costs.
func (n *Node) nominalInstrCycles() uint64 {
	v := n.m.Config().Variant
	return uint64(float64(n.cfg.DispatchInstr) * v.BaseTPI * float64(v.TickCycles))
}

// switchCycles prices one context switch (SwitchCost kernel instructions
// at the variant's nominal rate).
func (n *Node) switchCycles() uint64 {
	v := n.m.Config().Variant
	return uint64(float64(n.k.SwitchCost()) * v.BaseTPI * float64(v.TickCycles))
}

// wireWords is the total frame words a marshalled message of msgBytes
// occupies across its fragments.
func wireWords(msgBytes int) int {
	frags := (msgBytes + FragDataBytes - 1) / FragDataBytes
	if frags == 0 {
		frags = 1
	}
	return frags*frameHeaderWords + (msgBytes+3)/4
}

// The calibrated sleeps deduct the real costs the runtime pays anyway —
// the instruction slice, the transmit DMA and the wake-up context
// switches — so a stage's observed cost matches its analytic Costs value
// instead of double-counting. The analytic numbers come from the paper's
// measured RPC, which includes all of that.

// clientOverheadCycles estimates the client-side per-call costs paid in
// kind: the call's transmit DMA and the two wake-ups (post-marshal sleep
// and reply). The receive path wakes the caller, so it pays no detection
// delay.
func (n *Node) clientOverheadCycles(payloadBytes int) uint64 {
	dma := uint64(wireWords(headerBytes+payloadBytes)) * qbus.DefaultWordCycles
	return dma + 2*n.switchCycles()
}

// sleepCycles floors a calibrated stage remainder at one cycle.
func sleepCycles(total, deduct uint64) uint64 {
	if total <= deduct {
		return 1
	}
	return total - deduct
}

// perByteCycles converts a centi-cycle-per-byte rate.
func perByteCycles(centi uint64, bytes int) uint64 {
	return centi * uint64(bytes) / 100
}

// clientCycles is the client station's per-call cost (stub, marshal,
// buffer handoff) for the given payload, minus the instruction slice.
func (n *Node) clientCycles(payloadBytes int) uint64 {
	c := n.cfg.Costs
	return sleepCycles(c.ClientFixedCycles+perByteCycles(c.ClientPerByteCentiCycles, payloadBytes),
		n.nominalInstrCycles()+n.clientOverheadCycles(payloadBytes))
}

// serverCycles is the server station's per-call cost (receive interrupt,
// unmarshal, procedure, reply marshal) minus the instruction slice and
// the worker's two wake-ups (arrival and post-service sleep).
func (n *Node) serverCycles(payloadBytes int) uint64 {
	c := n.cfg.Costs
	return sleepCycles(c.ServerFixedCycles+perByteCycles(c.ServerPerByteCentiCycles, payloadBytes),
		n.nominalInstrCycles()+2*n.switchCycles())
}

// slotAddr returns the physical and QBus addresses of slot i.
func (n *Node) slotAddr(i int) (mbus.Addr, uint32) {
	off := uint32(i) * slotBytes
	return bufferBase + mbus.Addr(off), qWindow + off
}

// nextTx rotates through the transmit half of the buffer ring.
func (n *Node) nextTx() int {
	i := n.txSlot
	n.txSlot = (n.txSlot + 1) % (slots / 2)
	return i
}

// nextRx rotates through the receive half.
func (n *Node) nextRx() int {
	i := n.rxSlot
	n.rxSlot = (n.rxSlot + 1) % (slots / 2)
	return slots/2 + i
}

// transmit writes the message d describes, addressed to dst, straight
// into transmit slots, one frame per slot, and queues the DEQNA send of
// each. The DMA engine then fetches the words back out of memory and the
// medium serializes them — the payload genuinely crosses the machine
// boundary as words.
func (n *Node) transmit(dst int, d desc) {
	putHeader(n.hdr[:], d.kind, d.id, d.proc, d.bytes)
	enc := frameEnc{dst: dst, src: n.station, id: d.id, kind: d.kind,
		msg: msgBytes{stored: n.hdr[:], seed: d.seed, n: d.bytes}}
	mem := n.m.Memory()
	for i := range enc.count() {
		phys, qaddr := n.slotAddr(n.nextTx())
		enc.writeFrame(i, func(k int, w uint32) { mem.Poke(phys+mbus.Addr(k*4), w) })
		n.eth.Transmit(qaddr, enc.frameWords(i), nil)
	}
}

// Issue submits one call directly, without a caller thread: the traffic
// engine's load-balancer path. The call is accounted open-loop (its
// completion lands in the node's counters and latency histogram when the
// reply arrives) and onDone, if non-nil, fires exactly once at the
// call's disposition — reply, shed rejection, or retransmit-budget
// failure. It returns the call ID.
func (n *Node) Issue(dst, payloadBytes int, proc uint16, onDone func(CallOutcome)) uint32 {
	if payloadBytes == 0 {
		payloadBytes = n.cfg.Costs.PayloadBytes
	}
	return n.issue(dst, payloadBytes, proc, nil, onDone).msg.id
}

// issue transmits one call. Caller threads run it inside the client
// station, passing the condition variable they wait on; Issue runs it
// directly.
func (n *Node) issue(dst, payloadBytes int, proc uint16, caller *topaz.CondVar, onDone func(CallOutcome)) *call {
	if err := checkMessage(Call, payloadBytes); err != nil {
		panic(err)
	}
	n.nextID++
	c := take(&n.freeCalls)
	*c = call{
		msg:      callDesc(n.nextID, proc, payloadBytes),
		dst:      dst,
		started:  n.clock.Now(),
		deadline: n.clock.Now() + sim.Cycle(n.cfg.RetransmitCycles),
		caller:   caller,
		onDone:   onDone,
	}
	n.calls = append(n.calls, c)
	n.byID[c.msg.id] = c
	if len(n.calls) == 1 || c.deadline < n.nextDeadline {
		n.nextDeadline = c.deadline
	}
	n.stats.CallsIssued.Inc()
	n.emit(obs.KindRPCCall, uint64(c.msg.id), uint64(payloadBytes))
	n.transmit(dst, c.msg)
	return c
}

// take pops a record off a free list, or makes one.
func take[T any](free *[]*T) *T {
	k := len(*free)
	if k == 0 {
		return new(T)
	}
	x := (*free)[k-1]
	(*free)[k-1] = nil
	*free = (*free)[:k-1]
	return x
}

// freeCall returns a record no one references any more to the free list.
func (n *Node) freeCall(c *call) {
	*c = call{}
	n.freeCalls = append(n.freeCalls, c)
}

// settle delivers a call's disposition: it wakes the caller thread, or
// runs onDone and frees the record of an Issue call.
func (n *Node) settle(c *call, o CallOutcome) {
	if c.caller != nil {
		n.k.Notify(c.caller)
	}
	if c.onDone != nil {
		c.onDone(o)
	}
	if c.caller == nil {
		n.freeCall(c)
	}
}

// Step implements machine.Device: the client's retransmission timer. A
// call whose retransmit budget runs out fails, which wakes its caller.
// Failed calls settle after the timer list is compacted, so a call that
// an onDone issues joins the list.
func (n *Node) Step() {
	if len(n.calls) == 0 || n.clock.Now() < n.nextDeadline {
		return
	}
	now := n.clock.Now()
	kept := n.calls[:0]
	var next sim.Cycle
	for _, c := range n.calls {
		if now >= c.deadline {
			if c.attempts >= maxRetransmits {
				n.expired = append(n.expired, c)
				continue
			}
			c.attempts++
			c.deadline = now + sim.Cycle(n.cfg.RetransmitCycles<<uint(c.attempts))
			n.stats.Retransmits.Inc()
			n.emit(obs.KindRPCRetransmit, uint64(c.msg.id), uint64(c.attempts))
			n.transmit(c.dst, c.msg)
		}
		if len(kept) == 0 || c.deadline < next {
			next = c.deadline
		}
		kept = append(kept, c)
	}
	clear(n.calls[len(kept):])
	n.calls = kept
	n.nextDeadline = next
	for i, c := range n.expired {
		n.expired[i] = nil
		c.failed = true
		delete(n.byID, c.msg.id)
		n.stats.CallsFailed.Inc()
		n.settle(c, CallOutcome{
			ID: c.msg.id, Latency: now - c.started, Bytes: c.msg.bytes, Failed: true,
		})
	}
	n.expired = n.expired[:0]
}

// NextEvent implements machine.Device: between retransmission
// deadlines Step provably does nothing, so a machine whose only pending
// work is waiting for replies can big-step the whole wait. nextDeadline
// may belong to a call that has since completed — an early wake-up and
// a re-sweep, which the contract permits (under-reporting is a lost
// skip; over-reporting would be a missed retransmit).
func (n *Node) NextEvent(now sim.Cycle) sim.Cycle {
	if len(n.calls) == 0 {
		return sim.Never
	}
	if n.nextDeadline <= now {
		return now + 1
	}
	return n.nextDeadline
}

// Deliver accepts a frame from the shared medium: the DEQNA DMAs it,
// straight from the medium's words, into a receive slot, and the
// transport then parses it out of machine memory. The cluster wires it
// as the node's segment handler.
func (n *Node) Deliver(words []uint32) {
	if len(words) == 0 {
		return
	}
	_, qaddr := n.slotAddr(n.nextRx())
	n.eth.Receive(qbus.Packet{Words: words}, qaddr, n.rxDone)
}

// received is the DEQNA's completion of the oldest receive, which landed
// in slot rxDoneSlot.
func (n *Node) received(pkt qbus.Packet) {
	phys, _ := n.slotAddr(slots/2 + n.rxDoneSlot)
	n.rxDoneSlot = (n.rxDoneSlot + 1) % (slots / 2)
	if len(pkt.Words) == 0 {
		// Receive DMA aborted: the frame is lost in the NIC; the
		// client's retransmission recovers it.
		n.stats.RxOverruns.Inc()
		return
	}
	n.onFrame(phys, len(pkt.Words))
}

// onFrame reads a received frame back out of machine memory (proving
// the DMA path carried it), feeds reassembly, and dispatches a completed
// message.
func (n *Node) onFrame(phys mbus.Addr, nwords int) {
	src, h, payload, r := n.assemble(phys, nwords)
	if r == nil {
		return
	}
	switch h.kind {
	case Call:
		n.serverAccept(src, h, payload)
	case Reply:
		n.clientAccept(h)
	}
	n.freeReasm(r)
}

// assemble parses the frame of nwords words at phys straight from
// machine memory and appends its data to the message's reassembly. When
// that completes a valid message, it returns the sender, the message
// header, the payload and the reassembly holding it, which the caller
// frees once done with the payload; otherwise the reassembly is nil.
// Every frame or message it rejects is counted.
func (n *Node) assemble(phys mbus.Addr, nwords int) (int, header, []byte, *reasm) {
	mem := n.m.Memory()
	var hw [frameHeaderWords]uint32
	if nwords >= frameHeaderWords {
		for k := range hw {
			hw[k] = mem.Peek(phys + mbus.Addr(k*4))
		}
	}
	f, err := parseHeader(&hw, nwords)
	if err != nil {
		n.stats.BadFrames.Inc()
		return 0, header{}, nil, nil
	}
	if f.dst != n.station {
		// A frame for another station reached this NIC: a bridge
		// misroute or a cluster wiring bug. A real DEQNA's address
		// filter would have ignored it; count and drop.
		n.stats.Misrouted.Inc()
		return 0, header{}, nil, nil
	}
	key := uint64(f.src)<<48 | uint64(f.kind)<<32 | uint64(f.id)
	r := n.reasms[key]
	if f.index == 0 {
		// First fragment (or a full retransmission): start fresh.
		if r == nil {
			r = take(&n.freeReasms)
			n.reasms[key] = r
		}
		r.data, r.next, r.count, r.total = r.data[:0], 0, f.count, f.total
	} else if r == nil || f.index != r.next || f.count != r.count || f.total != r.total {
		// Out-of-order or stale fragment: the transfer protocol delivers
		// fragments in order, so discard and let retransmission restart.
		n.stats.FragDrops.Inc()
		if r != nil {
			delete(n.reasms, key)
			n.freeReasm(r)
		}
		return 0, header{}, nil, nil
	}
	data := phys + frameHeaderWords*4
	var w uint32
	for i := range f.bytes {
		if i%4 == 0 {
			w = mem.Peek(data + mbus.Addr(i))
		}
		r.data = append(r.data, dataByte(w, i))
	}
	r.next++
	if r.next < r.count {
		return 0, header{}, nil, nil
	}
	delete(n.reasms, key)
	if len(r.data) != r.total {
		n.stats.BadMessages.Inc()
		n.freeReasm(r)
		return 0, header{}, nil, nil
	}
	h, payload, err := decode(r.data)
	if err != nil {
		n.stats.BadMessages.Inc()
		n.freeReasm(r)
		return 0, header{}, nil, nil
	}
	return f.src, h, payload, r
}

// freeReasm empties a reassembly buffer and returns it to the free list.
func (n *Node) freeReasm(r *reasm) {
	*r = reasm{data: r.data[:0]}
	n.freeReasms = append(n.freeReasms, r)
}

// serverAccept deduplicates and enqueues an inbound call, waking an idle
// worker. payload is checked against the call's pattern in place.
func (n *Node) serverAccept(src int, h header, payload []byte) {
	key := uint64(src)<<32 | uint64(h.id)
	if e, ok := n.dedup[key]; ok {
		n.stats.DupCalls.Inc()
		if e.replied {
			// Already answered: the reply was lost; send it again.
			n.emit(obs.KindRPCDuplicate, uint64(h.id), 1)
			n.transmit(src, replyDesc(h.id, e.proc, e.shed))
		} else {
			// Still in service: absorb the duplicate.
			n.emit(obs.KindRPCDuplicate, uint64(h.id), 0)
		}
		return
	}
	for i, b := range payload {
		if b != patternByte(h.id, i) {
			n.stats.BadPayload.Inc()
			break
		}
	}
	if n.cfg.MaxQueue > 0 && n.srvQueue.Len() >= n.cfg.MaxQueue {
		// Admission control: the queue is at its bound. Answer from the
		// receive path with a rejection reply — recorded in the dedup
		// entry like any served reply, so a retransmitted shed call gets
		// the same rejection again instead of sneaking into the queue.
		n.dedup[key] = served{proc: h.proc, replied: true, shed: true}
		n.stats.CallsShed.Inc()
		n.emit(obs.KindRPCShed, uint64(h.id), uint64(src))
		n.transmit(src, replyDesc(h.id, h.proc, true))
		return
	}
	n.dedup[key] = served{proc: h.proc}
	n.srvQueue.Push(job{src: src, id: h.id, proc: h.proc, bytes: len(payload)})
	if n.srvQueue.Len() > n.queuePeak {
		n.queuePeak = n.srvQueue.Len()
	}
	n.stats.CallsReceived.Inc()
	n.k.Notify(n.work)
}

// popServer hands the oldest queued call to a worker thread.
func (n *Node) popServer() (job, bool) {
	if n.srvQueue.Len() == 0 {
		return job{}, false
	}
	j := n.srvQueue.Pop()
	n.emit(obs.KindRPCServe, uint64(j.id), uint64(j.src))
	return j, true
}

// sendReply transmits the reply for a served call and marks its dedup
// entry answered.
func (n *Node) sendReply(j *job) {
	n.dedup[uint64(j.src)<<32|uint64(j.id)] = served{proc: j.proc, replied: true}
	n.stats.Served.Inc()
	n.transmit(j.src, replyDesc(j.id, j.proc, false))
}

// clientAccept matches a reply to its outstanding call and settles it.
func (n *Node) clientAccept(h header) {
	c, ok := n.byID[h.id]
	if !ok || c.done {
		n.stats.DupReplies.Inc()
		n.emit(obs.KindRPCDuplicate, uint64(h.id), 2)
		return
	}
	c.done = true
	c.shed = h.proc == ShedProc
	c.latency = n.clock.Now() - c.started
	delete(n.byID, h.id)
	n.dropTimer(c)
	n.emit(obs.KindRPCReply, uint64(c.msg.id), uint64(c.latency))
	if c.shed {
		n.stats.ShedReplies.Inc()
	} else if c.caller == nil {
		n.recordCompleted(c)
	}
	n.settle(c, CallOutcome{
		ID: c.msg.id, Latency: c.latency, Bytes: c.msg.bytes, Shed: c.shed,
	})
}

// dropTimer removes an answered call from the timer list, keeping the
// others in issue order. nextDeadline may now be early, which NextEvent
// permits.
func (n *Node) dropTimer(c *call) {
	for i, x := range n.calls {
		if x == c {
			copy(n.calls[i:], n.calls[i+1:])
			n.calls[len(n.calls)-1] = nil
			n.calls = n.calls[:len(n.calls)-1]
			return
		}
	}
}

// recordCompleted accounts a finished call. Shed and failed calls never
// reach it: goodput counters and the latency histogram hold only calls
// the server actually served.
func (n *Node) recordCompleted(c *call) {
	n.stats.CallsCompleted.Inc()
	n.stats.BytesMoved.Add(uint64(c.msg.bytes))
	n.latHist.Observe(uint64(c.latency))
}

// StartServer forks the worker pool. An idle worker waits on the node's
// work condition variable, which the receive path signals; it takes the
// oldest queued call and processes it inside the per-connection station
// (the transfer protocol's in-order server stage), so service is
// serialized exactly like the analytic pipeline's server station however
// many workers overlap the waiting. It forks nothing and returns an error
// when the node has no room for the workers (see roomFor).
func (n *Node) StartServer() error {
	if err := n.roomFor(n.cfg.Workers, "server workers"); err != nil {
		return err
	}
	for w := 0; w < n.cfg.Workers; w++ {
		n.k.Fork(n.workerProgram(), topaz.ThreadSpec{
			Name: fmt.Sprintf("rpc-server-%d", w), WorkingSetLines: 48,
		}, nil)
	}
	return nil
}

// roomFor refuses nthreads new threads when the kernel cannot give each
// its own address space below the NIC buffers.
func (n *Node) roomFor(nthreads int, what string) error {
	if free := n.k.FreeSpaces(); nthreads > free {
		return fmt.Errorf("rpc: %d %s need an address space each; node %d has room for %d below its NIC buffers",
			nthreads, what, n.station, free)
	}
	return nil
}

// workerProgram is one server worker's state machine. Its actions are
// boxed once, since boxing a value allocates.
func (n *Node) workerProgram() topaz.Program {
	const (
		wWait = iota
		wLock
		wCompute
		wSleep
		wReply
		wUnlock
	)
	state := wWait
	var (
		cur      job
		sleep    topaz.Action // boxed for sleepFor cycles
		sleepFor uint64
	)
	wait := topaz.Action(topaz.Wait{CV: n.work})
	lock := topaz.Action(topaz.Lock{M: n.connMu})
	compute := topaz.Action(topaz.Compute{Instructions: n.cfg.DispatchInstr})
	reply := topaz.Action(topaz.Call{Fn: func() { n.sendReply(&cur) }})
	unlock := topaz.Action(topaz.Unlock{M: n.connMu})
	return topaz.ProgramFunc(func(*topaz.Thread) topaz.Action {
		switch state {
		case wWait:
			// Only serverAccept signals n.work, so this look at the queue
			// and the Wait are one atomic step and need no mutex.
			var ok bool
			if cur, ok = n.popServer(); !ok {
				return wait
			}
			state = wLock
			return lock
		case wLock:
			state = wCompute
			return compute
		case wCompute:
			state = wSleep
			svc := n.serverCycles(cur.bytes) + n.cfg.ProcService[cur.proc]
			// The station's busy time: the calibrated sleep plus the
			// instruction slice that just ran, both under the connection
			// mutex — the utilization numerator the queuing-model
			// differential compares against the analytic rho.
			n.stats.ServiceCycles.Add(svc + n.nominalInstrCycles())
			if sleep == nil || svc != sleepFor {
				sleep, sleepFor = topaz.Sleep{Cycles: svc}, svc
			}
			return sleep
		case wSleep:
			state = wReply
			return reply
		case wReply:
			state = wUnlock
			return unlock
		default:
			state = wWait
			return topaz.Compute{Instructions: 1}
		}
	})
}

// StartCallers forks nthreads closed-loop caller threads aimed at dst:
// each keeps exactly one call outstanding, waiting on a condition
// variable of its own for the reply or the call's failure, so nthreads
// is the concurrent-calls axis of the §6 experiment. It forks nothing
// and returns an error when the node has no room for them (see roomFor).
func (n *Node) StartCallers(nthreads, dst, payloadBytes int) error {
	if err := n.roomFor(nthreads, "caller threads"); err != nil {
		return err
	}
	if payloadBytes == 0 {
		payloadBytes = n.cfg.Costs.PayloadBytes
	}
	for i := 0; i < nthreads; i++ {
		n.k.Fork(n.callerProgram(dst, payloadBytes), topaz.ThreadSpec{
			Name: fmt.Sprintf("rpc-caller-%d", i), WorkingSetLines: 48,
		}, nil)
	}
	return nil
}

// callerProgram is one closed-loop caller's state machine. It holds the
// client station from marshal to finish, except while it waits: the
// Wait releases cliMu and the wake-up reacquires it. Its actions are
// boxed once, and it frees each call record when it is done with it.
func (n *Node) callerProgram(dst, payloadBytes int) topaz.Program {
	const (
		cBegin = iota
		cLock
		cCompute
		cSleep
		cWait
		cFinSleep
		cFinish
	)
	state := cBegin
	var cur *call
	cv := n.k.NewCond("rpc-caller")
	lock := topaz.Action(topaz.Lock{M: n.cliMu})
	compute := topaz.Action(topaz.Compute{Instructions: n.cfg.DispatchInstr})
	marshal := topaz.Action(topaz.Sleep{Cycles: n.clientCycles(payloadBytes)})
	issue := topaz.Action(topaz.Call{Fn: func() { cur = n.issue(dst, payloadBytes, DefaultProc, cv, nil) }})
	wait := topaz.Action(topaz.Wait{CV: cv, M: n.cliMu})
	finSleep := topaz.Action(topaz.Sleep{Cycles: n.cfg.Costs.ClientFinishCycles})
	finish := topaz.Action(topaz.Call{Fn: func() {
		// Latency spans issue to finish, like transport.Run. A shed
		// reply is not goodput; the caller just loops.
		cur.latency = n.clock.Now() - cur.started
		if !cur.shed {
			n.recordCompleted(cur)
		}
	}})
	unlock := topaz.Action(topaz.Unlock{M: n.cliMu})
	return topaz.ProgramFunc(func(*topaz.Thread) topaz.Action {
		switch state {
		case cBegin:
			state = cLock
			return lock
		case cLock:
			state = cCompute
			return compute
		case cCompute:
			state = cSleep
			return marshal
		case cSleep:
			state = cWait
			return issue
		case cWait:
			if cur.done {
				state = cFinSleep
				return finSleep
			}
			if !cur.failed {
				return wait
			}
			// The retransmit budget ran out: release the station and
			// issue the next call.
		case cFinSleep:
			state = cFinish
			return finish
		}
		state = cBegin
		n.freeCall(cur)
		cur = nil
		return unlock
	})
}
