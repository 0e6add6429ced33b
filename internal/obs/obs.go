// Package obs is the machine-wide observability layer: structured event
// tracing for every Firefly subsystem. The hardware Firefly was measured
// with "a counter connected to the hardware" (paper §5.3); obs is the
// modern equivalent — a stream of typed events emitted by the MBus, the
// coherent caches, the Topaz scheduler, and the QBus DMA engine, fanned
// out to pluggable sinks (a bounded ring buffer, a deterministic JSONL
// exporter, a Chrome trace_event exporter).
//
// Design constraints:
//
//   - Disabled tracing must cost nothing on the hot path: every emitting
//     component holds a nil-able *Tracer and guards emission with a nil
//     check. No Event is constructed when the tracer is nil.
//   - Emission must not allocate: Event is a flat value struct whose only
//     reference field is a Label string, which emitters populate from
//     pre-existing constants (an OpKind mnemonic, a state name, a thread
//     name) — never from runtime concatenation.
//   - The event stream must be deterministic: the simulator is
//     single-threaded and every component's randomness is seeded, so two
//     runs with the same seed produce byte-identical exported streams.
package obs

import "fmt"

// Kind identifies an event type. Kinds are grouped by emitting subsystem;
// the groups map onto the paper's instrumentation points (see DESIGN.md,
// "Observability").
type Kind uint8

const (
	// KindBusGrant: an initiator won MBus arbitration (Figure 4, cycle 1).
	// Unit is the winning port, Addr the operation address, A the
	// mbus.OpKind, Label the operation mnemonic.
	KindBusGrant Kind = iota
	// KindBusShared: the wired-OR MShared line was asserted during cycle 3
	// of the operation (Figure 4). Unit is the initiating port, A the
	// mbus.OpKind.
	KindBusShared
	// KindBusOp: a four-cycle MBus operation completed (Figure 4, cycle 4).
	// Unit is the initiating port, A the mbus.OpKind, B 1 when MShared was
	// asserted.
	KindBusOp
	// KindCacheReadHit / KindCacheWriteHit: a CPU reference hit the board
	// cache. Unit is the processor, Addr the reference address.
	KindCacheReadHit
	KindCacheWriteHit
	// KindCacheReadMiss / KindCacheWriteMiss: a CPU reference missed.
	KindCacheReadMiss
	KindCacheWriteMiss
	// KindCacheWriteThrough: a conditional write-through completed
	// (the Firefly protocol's signature behaviour, Figure 3). B is 1 when
	// MShared was asserted (true sharing), 0 for the "last sharer" write
	// that reverts the line to write-back.
	KindCacheWriteThrough
	// KindCacheWriteBack: a dirty victim line finished writing back.
	KindCacheWriteBack
	// KindCacheState: a line changed coherence state (a Figure 3 arc).
	// A is the old core.State, B the new, Label the new state's name.
	KindCacheState
	// KindSchedDispatch: the Topaz scheduler placed a thread on a
	// processor. Unit is the processor, A the thread id, Label the thread
	// name.
	KindSchedDispatch
	// KindSchedPreempt: a thread's quantum expired and it was returned to
	// the ready queue. Unit is the processor, A the thread id.
	KindSchedPreempt
	// KindSchedMigrate: a dispatch moved a thread away from its last
	// processor — the cache-refill cost §5.1 explains.
	KindSchedMigrate
	// KindSchedMigrateAvoided: the scheduler skipped older ready threads
	// to dispatch one with affinity for this processor ("the Taos
	// scheduler makes some effort to avoid changing processors").
	KindSchedMigrateAvoided
	// KindDMAStart: the QBus DMA engine began a transfer. Unit is the
	// engine's MBus port, A the word count, B 1 for device-to-memory,
	// Label the device name.
	KindDMAStart
	// KindDMAWord: one DMA word moved over the MBus. Addr is the
	// translated physical address.
	KindDMAWord
	// KindDMADone: a DMA transfer completed (or NXM-aborted on a mapping
	// fault, B = 1).
	KindDMADone
	// KindCacheLoad: a CPU load produced a value. A is the loaded word,
	// B is 1 when the value came straight from the cache (a hit) and 0
	// when a bus fill supplied it. Emitted at the point the value becomes
	// architecturally visible to the loading processor; the coherence
	// oracle (internal/check) validates A against the reference memory.
	KindCacheLoad
	// KindCacheStore: a CPU store serialized without a data-carrying bus
	// operation: a local write hit on a non-shared line (B = 1) or an
	// MInv-based write hit whose store commits with the invalidation
	// (B = 0). A is the stored word. Stores that ride a data-carrying bus
	// operation are reported by the bus as KindBusStore instead.
	KindCacheStore
	// KindBusStore: a data-carrying bus operation (MWrite or MUpdate)
	// reached its serialization point — cycle 3, when snooping caches
	// commit the value. Unit is the initiating port, A the data word,
	// B 1 when the write is a victim write-back (whose data must match,
	// not change, the coherent value), Label the operation mnemonic.
	KindBusStore
	// KindDMAFault: a DMA transfer aborted before its last word. Unit is
	// the engine's MBus port, Addr the faulting QBus address, A the words
	// completed, B the cause (0 mapping fault, 1 injected NXM, 2 bus-fault
	// retry budget exhausted), Label the device name. Successful transfers
	// emit KindDMADone instead; the two are disjoint.
	KindDMAFault
	// KindFaultBusOp: an injected MBus operation fault. The operation
	// occupied the bus but had no architectural effect — no snoop probes,
	// no memory access. Unit is the initiating port, A the mbus.OpKind,
	// B the mbus.FaultKind, Label the fault name.
	KindFaultBusOp
	// KindFaultMemECC: the storage modules detected a soft error on a
	// read. A is 1 when the error exceeded ECC's correction capability
	// (the read faults), 0 for a corrected single-bit error.
	KindFaultMemECC
	// KindFaultCacheTag: a cache tag-store parity error on a CPU access.
	// Unit is the processor, Addr the line. B 0: the line was clean, so
	// the controller invalidates it and refetches (correctable — the
	// following KindCacheState arc to Invalid is fault recovery, not a
	// protocol transition). B 1: the line was dirty, the sole copy of its
	// data; the error is uncorrectable and latches a machine check.
	KindFaultCacheTag
	// KindFaultDMAStall: the QBus DMA engine stalled on an injected
	// device fault. A is the stall length in cycles.
	KindFaultDMAStall
	// KindFaultRetry: the bus raised a faulted operation again on its
	// initiator's request line, to arbitrate after a backoff; the
	// initiator sees nothing of it. Unit is the initiator's port, Addr
	// the operation address, A the attempt number (1-based), B the
	// backoff in cycles. The label is empty.
	KindFaultRetry
	// KindMachineCheck: an uncorrectable fault was latched. Unit is the
	// processor or port, Addr the faulting address, A the cause (1: bus
	// fault retry budget exhausted, 2: tag parity on a dirty line).
	KindMachineCheck
	// KindCPUOffline: Topaz took a processor out of service after its
	// cache reported an uncorrectable fault; its thread returned to the
	// ready queue for the surviving processors. Unit is the processor.
	KindCPUOffline
	// KindNetTx: a station seized the shared Ethernet segment and began
	// serializing a frame. Unit is the station, A the frame length in
	// longwords, B the destination station (as a uint32; 0xffffffff is
	// broadcast).
	KindNetTx
	// KindNetRx: a frame was delivered to a station. Unit is the
	// receiving station, A the frame length in longwords, B the source
	// station.
	KindNetRx
	// KindNetCollision: a station's transmission attempt collided and it
	// is backing off. Unit is the station, A the attempt number, B the
	// backoff in cycles.
	KindNetCollision
	// KindNetDrop: a frame was lost. Unit is the station, B the reason
	// (0: injected receive-side drop, 1: no handler at the destination,
	// 2: transmit abandoned after the collision attempt budget).
	KindNetDrop
	// KindRPCCall: the client runtime issued a call onto the wire. Unit
	// is the station, A the call ID, B the payload bytes.
	KindRPCCall
	// KindRPCServe: the server runtime dispatched a complete call to a
	// worker thread. Unit is the station, A the call ID, B the source
	// station.
	KindRPCServe
	// KindRPCReply: the client runtime matched a reply to its call. Unit
	// is the station, A the call ID, B the call latency in cycles.
	KindRPCReply
	// KindRPCRetransmit: the client runtime retransmitted an unanswered
	// call. Unit is the station, A the call ID, B the attempt number.
	KindRPCRetransmit
	// KindRPCDuplicate: a duplicate was detected and absorbed. Unit is
	// the station, A the call ID, B the case (0: duplicate call while the
	// original is still in service, 1: duplicate call after completion —
	// the reply is written and sent again, 2: duplicate or stale reply at the
	// client).
	KindRPCDuplicate
	// KindBusArb: a contended arbitration cycle resolved — at least two
	// ports requested and the arbitration policy picked one. Unit is the
	// granted port, A the number of requesters, B a bitmask of the ports
	// left waiting that covers ports 0-63 only (a waiting port from 64 up
	// counts in A but has no bit), Label the arbiter name. Uncontended
	// grants emit only KindBusGrant; this event is the policy decision.
	KindBusArb
	// KindSchedSteal: the work-stealing dispatch policy gave an idle
	// processor a thread with affinity for the busiest peer. Unit is the
	// stealing processor, A the thread id, B the victim processor the
	// thread last ran on, Label the thread name. A KindSchedMigrate
	// follows from the dispatch itself.
	KindSchedSteal
	// KindRPCShed: the server's admission control rejected a call
	// because the dispatch queue was at its bound; a rejection reply was
	// sent instead of queuing. Unit is the station, A the call ID, B the
	// source station.
	KindRPCShed

	numKinds
)

var kindNames = [numKinds]string{
	KindBusGrant:            "bus.grant",
	KindBusShared:           "bus.shared",
	KindBusOp:               "bus.op",
	KindCacheReadHit:        "cache.read_hit",
	KindCacheWriteHit:       "cache.write_hit",
	KindCacheReadMiss:       "cache.read_miss",
	KindCacheWriteMiss:      "cache.write_miss",
	KindCacheWriteThrough:   "cache.write_through",
	KindCacheWriteBack:      "cache.write_back",
	KindCacheState:          "cache.state",
	KindSchedDispatch:       "sched.dispatch",
	KindSchedPreempt:        "sched.preempt",
	KindSchedMigrate:        "sched.migrate",
	KindSchedMigrateAvoided: "sched.migrate_avoided",
	KindDMAStart:            "dma.start",
	KindDMAWord:             "dma.word",
	KindDMADone:             "dma.done",
	KindCacheLoad:           "cache.load",
	KindCacheStore:          "cache.store",
	KindBusStore:            "bus.store",
	KindDMAFault:            "dma.fault",
	KindFaultBusOp:          "fault.bus_op",
	KindFaultMemECC:         "fault.mem_ecc",
	KindFaultCacheTag:       "fault.cache_tag",
	KindFaultDMAStall:       "fault.dma_stall",
	KindFaultRetry:          "fault.retry",
	KindMachineCheck:        "fault.machine_check",
	KindCPUOffline:          "sched.offline",
	KindNetTx:               "net.tx",
	KindNetRx:               "net.rx",
	KindNetCollision:        "net.collision",
	KindNetDrop:             "net.drop",
	KindRPCCall:             "rpc.call",
	KindRPCServe:            "rpc.serve",
	KindRPCReply:            "rpc.reply",
	KindRPCRetransmit:       "rpc.retransmit",
	KindRPCDuplicate:        "rpc.dup",
	KindBusArb:              "bus.arb",
	KindSchedSteal:          "sched.steal",
	KindRPCShed:             "rpc.shed",
}

// String returns the kind's dotted name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Kinds returns every defined kind, for exhaustiveness tests.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// Event is one observed machine event. It is a flat value struct: emitting
// one allocates nothing, and a Ring of them is a single backing array.
// Field meanings are kind-specific; see the Kind constants.
type Event struct {
	// Cycle is the MBus cycle at which the event was observed.
	Cycle uint64
	// Kind classifies the event.
	Kind Kind
	// Unit is the emitting unit: a processor index, an MBus port, or -1
	// when no unit applies.
	Unit int32
	// Addr is the physical address involved, when one is.
	Addr uint32
	// A and B carry kind-specific arguments.
	A, B uint64
	// Label is a human mnemonic (an op name, a state name, a thread
	// name). Emitters must use pre-existing constant strings.
	Label string
}

// Observer consumes events. Implementations must not retain pointers into
// any internal state of the emitter; the Event value is theirs to keep.
type Observer interface {
	Observe(Event)
}

// Tracer fans events out to its sinks. A nil *Tracer is the disabled
// state: components guard every emission site with a nil check, so the
// disabled cost is one predictable branch.
type Tracer struct {
	sinks []Observer
	count uint64
}

// NewTracer returns a tracer with the given sinks attached.
func NewTracer(sinks ...Observer) *Tracer {
	return &Tracer{sinks: sinks}
}

// Attach adds a sink. Events emitted before Attach are not replayed.
func (t *Tracer) Attach(o Observer) {
	if o == nil {
		panic("obs: attaching a nil observer")
	}
	t.sinks = append(t.sinks, o)
}

// Emit delivers the event to every sink in attachment order.
func (t *Tracer) Emit(e Event) {
	t.count++
	for _, s := range t.sinks {
		s.Observe(e)
	}
}

// Count returns the number of events emitted so far.
func (t *Tracer) Count() uint64 { return t.count }

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// Observe implements Observer.
func (f ObserverFunc) Observe(e Event) { f(e) }
