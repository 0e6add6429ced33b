// Package firefly is a simulator-based reproduction of the Firefly
// multiprocessor workstation (Thacker, Stewart, Satterthwaite, ASPLOS II,
// 1987): a small shared-memory multiprocessor whose snoopy caches run the
// Firefly conditional write-through coherence protocol over a simple
// 10 MB/s bus.
//
// The package is a facade over the simulator's subsystems:
//
//   - the MBus (internal/mbus): four-cycle MRead/MWrite operations with a
//     wired-OR MShared line (the paper's Figure 4);
//   - the coherent cache (internal/core): the paper's primary
//     contribution, a direct-mapped snoopy cache with Dirty/Shared tags
//     and conditional write-through (Figure 3), plus baseline protocols
//     (internal/coherence): Dragon, Berkeley, MESI, write-through
//     invalidate;
//   - processor models (internal/cpu): MicroVAX 78032 and CVAX 78034
//     timing behaviour driven by reference streams (internal/trace);
//   - the analytic performance model of §5.2 (internal/model),
//     regenerating the paper's Table 1;
//   - the Topaz operating system layer (internal/topaz): threads,
//     mutexes, condition variables, and the migration-avoiding scheduler;
//   - the I/O system (internal/qbus): QBus mapping registers, DMA, the
//     RQDX3 disk and DEQNA Ethernet controllers;
//   - the display controller (internal/display): a real BitBlt engine and
//     the MDC's work-queue/microengine timing;
//   - RPC (internal/rpc) and the paper's workloads (internal/workload).
//
// Typical use:
//
//	m := firefly.NewMicroVAX(5)          // a standard 5-CPU Firefly
//	m.AttachSyntheticLoad(firefly.SyntheticLoad{
//		MissRate:           0.2,
//		ShareFraction:      0.1,
//		SharedReadFraction: 0.05,
//	})
//	m.RunSeconds(0.01)
//	fmt.Println(m.Report())
//
// or with the operating system layer:
//
//	m := firefly.NewMicroVAX(4)
//	k := firefly.Boot(m, firefly.KernelConfig{Dispatch: topaz.MigrationAverse{}})
//	k.Fork(topaz.Seq(topaz.Compute{Instructions: 100_000}), topaz.ThreadSpec{}, nil)
//	k.RunUntilDone(100_000_000)
package firefly

import (
	"io"

	"firefly/internal/coherence"
	"firefly/internal/core"
	"firefly/internal/cpu"
	"firefly/internal/display"
	"firefly/internal/machine"
	"firefly/internal/model"
	"firefly/internal/obs"
	"firefly/internal/stats"
	"firefly/internal/topaz"
	"firefly/internal/trace"
)

// Machine is an assembled Firefly system: processors, caches, MBus,
// storage, and attached I/O engines.
type Machine = machine.Machine

// MachineConfig selects processors, cache geometry, coherence protocol,
// memory size, and bus arbitration.
type MachineConfig = machine.Config

// Report is a machine measurement summary in the categories of the
// paper's Table 2.
type Report = machine.Report

// Kernel is the Topaz operating-system layer: threads, synchronization,
// and the scheduler.
type Kernel = topaz.Kernel

// KernelConfig tunes the Topaz kernel (quantum, dispatch policy, context
// switch cost).
type KernelConfig = topaz.Config

// Thread is a Topaz thread of control.
type Thread = topaz.Thread

// ThreadSpec configures a new thread's name and memory behaviour.
type ThreadSpec = topaz.ThreadSpec

// Protocol is a snoopy cache coherence protocol.
type Protocol = core.Protocol

// ModelParams are the analytic model's inputs (§5.2).
type ModelParams = model.Params

// MDC is the monochrome display controller.
type MDC = display.MDC

// NewMachine builds a Firefly from an explicit configuration.
func NewMachine(cfg MachineConfig) *Machine { return machine.New(cfg) }

// NewMicroVAX returns the original Firefly: n MicroVAX 78032 processors,
// 16 KB caches, up to 16 MB of storage. The standard configuration had
// five processors.
func NewMicroVAX(n int) *Machine { return machine.New(machine.MicroVAXConfig(n)) }

// NewCVAX returns the second-version Firefly: n CVAX 78034 processors,
// 64 KB caches, up to 128 MB of storage.
func NewCVAX(n int) *Machine { return machine.New(machine.CVAXConfig(n)) }

// Boot installs a Topaz kernel on the machine: every processor gets the
// scheduler and an idle loop; fork threads with Kernel.Fork.
func Boot(m *Machine, cfg KernelConfig) *Kernel { return topaz.NewKernel(m, cfg) }

// FireflyProtocol returns the paper's conditional write-through protocol.
func FireflyProtocol() Protocol { return core.Firefly{} }

// Protocols returns the full protocol suite (Firefly first, then the
// Archibald & Baer baselines: Dragon, Berkeley, MESI, write-through
// invalidate).
func Protocols() []Protocol { return coherence.All() }

// ProtocolByName returns a protocol by its Name. The second result
// reports whether the name is known.
func ProtocolByName(name string) (Protocol, bool) { return coherence.ByName(name) }

// ProtocolNames returns the known protocol names in suite order.
func ProtocolNames() []string { return coherence.Names() }

// MicroVAXModel returns the analytic model with the paper's MicroVAX
// parameters; MicroVAXModel().Sweep(model.Table1NPs) regenerates Table 1.
func MicroVAXModel() ModelParams { return model.MicroVAX() }

// CVAXModel returns the analytic model with CVAX parameters.
func CVAXModel() ModelParams { return model.CVAX() }

// Variants returns the processor implementations.
func Variants() []cpu.Variant {
	return []cpu.Variant{cpu.MicroVAX78032(), cpu.CVAX78034()}
}

// Observability. Machine.Trace attaches sinks to a machine's event
// stream; these aliases and constructors expose the internal/obs types
// through the facade.

// SyntheticLoad names the synthetic-workload parameters for
// Machine.AttachSyntheticLoad.
type SyntheticLoad = trace.SyntheticLoad

// TraceEvent is one observability event (a bus grant, a cache state
// transition, a scheduler dispatch, a DMA word, ...).
type TraceEvent = obs.Event

// TraceObserver consumes trace events; implementations include the ring
// buffer and the JSONL and Chrome exporters.
type TraceObserver = obs.Observer

// Tracer fans events out to attached observers; Machine.Trace installs
// one on a machine and attaches sinks to it.
type Tracer = obs.Tracer

// TraceRing is a bounded in-memory event buffer that overwrites its
// oldest events when full.
type TraceRing = obs.Ring

// NewTraceRing returns a ring buffer holding the last capacity events.
func NewTraceRing(capacity int) *TraceRing { return obs.NewRing(capacity) }

// NewJSONLExporter returns a sink writing one deterministic JSON object
// per event. Close it to flush.
func NewJSONLExporter(w io.Writer) *obs.JSONL { return obs.NewJSONL(w) }

// NewChromeExporter returns a sink writing the Chrome trace_event
// format (load in chrome://tracing or Perfetto), one track per
// processor plus one for the bus. Close it to finish the JSON array.
func NewChromeExporter(w io.Writer) *obs.Chrome { return obs.NewChrome(w) }

// StatsRegistry is the named-counter registry behind Machine.Report.
type StatsRegistry = stats.Registry
