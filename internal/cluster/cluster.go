// Package cluster assembles multiple Firefly machines around shared
// Ethernet segments — the environment the paper's §6 measures: "a
// network communication facility that allows programs on one Firefly to
// communicate with programs on other Fireflies ... by RPC."
//
// Each machine is an ordinary machine.Machine with its own clock, bus,
// caches, and Topaz kernel, plus an rpc.Node (DEQNA, DMA engine, and the
// RPC runtime). The members remain independently clocked — nothing but
// the Ethernet couples them, and frames take real wire time to cross —
// so within any window of cycles in which the wire provably delivers
// nothing and completes nothing, the machines are independent. The
// engine exploits that two ways:
//
//   - Step() is the serial reference: one cluster cycle ticks the
//     cluster clock, injects the previous cycle's captured sends into
//     the stations, steps the bridge and every segment (wire first, so
//     frames finishing this cycle are deliverable before any machine's
//     devices step), then every machine in station order.
//
//   - Run() executes the same schedule in wire-bounded windows: it asks
//     every segment for its EventHorizon (the first cycle the wire may
//     deliver a frame or complete a transmit), runs every member
//     machine independently through the cycles before it — optionally
//     sharded across a bounded worker pool — then replays the wire
//     serially through the same cycles, from wire event to wire event,
//     injecting each machine's captured sends at the cycles they were
//     made. Because no wire event lands inside the window, the result
//     is byte-identical to Step()ing, for any worker count. When a wire
//     event is imminent, Run takes one serial Step instead.
//
// RunUntil() is the Step loop with a predicate checked before every
// cycle.
//
// Determinism contract (see DESIGN.md, "Parallel cluster engine"):
// fixed per-machine seeds, sends merged in station order at their
// original cycles, segments stepped in index order, and every backoff
// draw from the segment's own stream, so a fixed configuration and seed
// reproduces byte-identical reports and per-machine trace streams at
// any Workers setting. The one carve-out: an obs observer shared by
// several machines sees events in machine-blocked window order rather
// than cycle order (and would race at Workers > 1) — give each machine
// its own observer and merge afterwards.
//
// A multi-segment Config scales past one wire: machines are split in
// contiguous blocks across Segments Ethernet segments joined by a
// store-and-forward net.Bridge, so hundreds of Fireflies can simulate
// in parallel with per-segment wire concurrency.
package cluster

import (
	"fmt"
	"runtime"

	"firefly/internal/fault"
	"firefly/internal/machine"
	"firefly/internal/net"
	"firefly/internal/qbus"
	"firefly/internal/rpc"
	"firefly/internal/sim"
)

// Config describes a cluster.
type Config struct {
	// Machines is the number of Fireflies in the cluster (default 2).
	Machines int
	// Segments is the number of Ethernet segments; machines are split
	// across them in contiguous blocks and a store-and-forward bridge
	// joins them (default 1: a single shared wire, no bridge).
	Segments int
	// Workers bounds the goroutines that step member machines inside
	// Run's wire-bounded windows (default 1: serial in-line; use
	// DefaultWorkers for one per CPU). Output is byte-identical for any
	// value — see the package comment for the shared-observer carve-out.
	Workers int
	// Machine templates each member; Seed is offset per machine index so
	// the members' random streams are independent. Zero value: a
	// two-processor MicroVAX Firefly.
	Machine machine.Config
	// Net configures the shared segments. Net.Seed defaults to Seed and
	// is re-derived per segment; Net.MinFrameWords defaults to the RPC
	// transport header size, which sizes Run's windows.
	Net net.Config
	// Node configures every machine's RPC runtime.
	Node rpc.NodeConfig
	// NodePatch, when non-nil, rewrites the node configuration per
	// machine before the runtime is built — how the traffic engine gives
	// its server nodes an admission-control queue bound and per-class
	// service costs while the load-balancer front end keeps the plain
	// client configuration. It must be a pure function of (i, cfg).
	NodePatch func(i int, cfg rpc.NodeConfig) rpc.NodeConfig
	// Faults, when non-nil, attaches a fault plan to every machine (the
	// usual bus/memory/DMA/tag classes) and a cluster-level plan whose
	// NetDropRate loses delivered frames on every segment. Seeded from
	// Seed, so fault storms reproduce.
	Faults *fault.Config
	// Seed drives every random stream in the cluster (default 1).
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Machines == 0 {
		c.Machines = 2
	}
	if c.Segments == 0 {
		c.Segments = 1
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Machine.Processors == 0 {
		c.Machine = machine.MicroVAXConfig(2)
	}
	if c.Net.Seed == 0 {
		c.Net.Seed = c.Seed
	}
	if c.Net.MinFrameWords == 0 {
		c.Net.MinFrameWords = rpc.MinFrameWords
	}
	return c
}

// Validate checks the topology as given: at least two machines, and
// between one segment and one per machine. New validates after filling
// defaults, so zero Machines or Segments pass there.
func (c Config) Validate() error {
	if c.Machines < 2 {
		return fmt.Errorf("cluster: need at least 2 machines to network, got %d", c.Machines)
	}
	if c.Segments < 1 || c.Segments > c.Machines {
		return fmt.Errorf("cluster: need between 1 and %d segments for %d machines, got %d", c.Machines, c.Machines, c.Segments)
	}
	return nil
}

// DefaultWorkers is the Workers setting for one phase-A goroutine per
// CPU; the -workers flags of fireflysim and tables use it for 0.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// capturedSend is one frame a machine handed its NIC, stamped with the
// machine clock at the hand-off. The cluster injects it into the
// member's station when the wire replay reaches that cycle.
type capturedSend struct {
	stamp sim.Cycle
	frame net.Frame
	done  func(ok bool)
}

// member is one Firefly and its attachment to the cluster wire.
type member struct {
	m    *machine.Machine
	node *rpc.Node
	st   *net.Station
	seg  int

	// sends[cursor:] are captured but not yet injected. Appended by the
	// member's own goroutine during a window, drained serially by the
	// cluster at cycle boundaries; the two phases never overlap.
	sends  []capturedSend
	cursor int
}

// medium adapts one DEQNA to the cluster wire: transmit DMA completion
// captures the frame words into the member's send buffer instead of
// touching the (shared) segment, so member machines can run
// concurrently. The cluster resolves the transport's global destination
// to a local station — or the bridge — at injection time.
type medium struct {
	c  *Cluster
	mb *member
}

func (md *medium) Transmit(pkt qbus.Packet, done func(ok bool)) {
	md.c.capture(md.mb, pkt, done)
}

// Cluster is a set of lockstep-stepped Fireflies on bridged Ethernets.
type Cluster struct {
	cfg     Config
	clock   *sim.Clock // the cluster clock: drives the segments
	segs    []*net.Segment
	bridge  *net.Bridge // nil for a single segment
	members []*member
	netPlan *fault.Plan

	machineSeg    []int // machine index -> segment index
	segLo         []int // segment index -> first machine index
	bridgeStation []int // segment index -> bridge's local station

	// minVisible bounds how soon a frame sent at or after "now" can
	// complete or abort: the least SendHorizon over the segments. It caps
	// Run's window length so in-window sends stay invisible to the
	// machines.
	minVisible sim.Cycle

	// runMember runs member j through the current window of length
	// window. Built once in New so handing it to sim.Parallel on every
	// window allocates nothing.
	runMember func(j int)
	window    uint64
}

// New builds the cluster: machines, kernels, NICs, wires, and bridge.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cluster{cfg: cfg, clock: &sim.Clock{}}
	for k := 0; k < cfg.Segments; k++ {
		ncfg := cfg.Net
		if k > 0 {
			// Independent backoff streams per wire; segment 0 keeps the
			// configured seed so single-segment runs are unchanged.
			ncfg.Seed = cfg.Net.Seed + 7919*uint64(k)
		}
		c.segs = append(c.segs, net.NewSegment(c.clock, ncfg))
	}
	if cfg.Faults != nil {
		fcfg := *cfg.Faults
		if fcfg.Seed == 0 {
			fcfg.Seed = cfg.Seed
		}
		c.netPlan = fault.NewPlan(fcfg, c.clock)
		for _, s := range c.segs {
			s.SetFaultInjector(c.netPlan)
		}
	}
	// Contiguous blocks of machines per segment, sized as evenly as the
	// division allows.
	base, extra := cfg.Machines/cfg.Segments, cfg.Machines%cfg.Segments
	lo := 0
	for k := 0; k < cfg.Segments; k++ {
		size := base
		if k < extra {
			size++
		}
		c.segLo = append(c.segLo, lo)
		for i := 0; i < size; i++ {
			c.machineSeg = append(c.machineSeg, k)
		}
		lo += size
	}
	for i := 0; i < cfg.Machines; i++ {
		k := c.machineSeg[i]
		mcfg := cfg.Machine
		mcfg.Seed = cfg.Seed*1009 + uint64(i)
		mcfg.Faults = cfg.Faults
		m := machine.New(mcfg)
		ncfg := cfg.Node
		if cfg.NodePatch != nil {
			ncfg = cfg.NodePatch(i, ncfg)
		}
		mb := &member{m: m, seg: k}
		node := rpc.NewNode(m, i, &medium{c: c, mb: mb}, ncfg)
		mb.node = node
		mb.st = c.segs[k].Attach(func(f net.Frame) { node.Deliver(f.Words) })
		c.members = append(c.members, mb)
	}
	if cfg.Segments > 1 {
		// The bridge takes the station after each segment's machines.
		c.bridge = net.NewBridge(c.clock, c.routeFrame, net.BridgeConfig{})
		for _, s := range c.segs {
			c.bridgeStation = append(c.bridgeStation, s.Stations())
			c.bridge.AttachPort(s)
		}
	}
	c.minVisible = sim.Never
	for _, s := range c.segs {
		c.minVisible = min(c.minVisible, s.SendHorizon())
	}
	c.runMember = func(j int) { c.members[j].m.Run(c.window) }
	return c
}

// routeFrame is the bridge's routing function: the transport header
// names a global machine, whose segment and local station the topology
// tables resolve.
func (c *Cluster) routeFrame(words []uint32, inPort int) (outPort, localDst int, ok bool) {
	dst := rpc.FrameDst(words)
	if dst < 0 || dst >= len(c.members) {
		return 0, 0, false
	}
	k := c.machineSeg[dst]
	if k == inPort {
		return 0, 0, false
	}
	return k, dst - c.segLo[k], true
}

// capture buffers one transmitted frame against the member, resolving
// the transport's global destination to a station on the member's
// segment: the destination machine if it shares the wire, the bridge
// otherwise.
func (c *Cluster) capture(mb *member, pkt qbus.Packet, done func(ok bool)) {
	dst := rpc.FrameDst(pkt.Words)
	if dst < 0 || dst >= len(c.members) {
		panic(fmt.Sprintf("cluster: frame to unknown machine %d", dst))
	}
	local := dst - c.segLo[mb.seg]
	if c.machineSeg[dst] != mb.seg {
		local = c.bridgeStation[mb.seg]
	}
	mb.sends = append(mb.sends, capturedSend{
		stamp: mb.m.Clock().Now(),
		frame: net.Frame{Dst: local, Words: pkt.Words},
		done:  done,
	})
}

// injectSends moves captured sends with stamp <= upTo into the members'
// stations, in station order, oldest first — the order the old serial
// loop produced them. Called only between machine phases.
func (c *Cluster) injectSends(upTo sim.Cycle) {
	for _, mb := range c.members {
		for mb.cursor < len(mb.sends) && mb.sends[mb.cursor].stamp <= upTo {
			s := &mb.sends[mb.cursor]
			mb.st.Send(s.frame, s.done)
			*s = capturedSend{}
			mb.cursor++
		}
		if mb.cursor == len(mb.sends) {
			mb.sends = mb.sends[:0]
			mb.cursor = 0
		}
	}
}

// Clock returns the cluster clock (wire time).
func (c *Cluster) Clock() *sim.Clock { return c.clock }

// Segment returns the first Ethernet segment (the only one in a
// single-segment cluster).
func (c *Cluster) Segment() *net.Segment { return c.segs[0] }

// SegmentAt returns segment k.
func (c *Cluster) SegmentAt(k int) *net.Segment { return c.segs[k] }

// NumSegments returns the segment count.
func (c *Cluster) NumSegments() int { return len(c.segs) }

// Bridge returns the inter-segment bridge, or nil for a single segment.
func (c *Cluster) Bridge() *net.Bridge { return c.bridge }

// SegmentOf returns the segment index machine i is attached to.
func (c *Cluster) SegmentOf(i int) int { return c.machineSeg[i] }

// Machines returns the member machines in station order.
func (c *Cluster) Machines() []*machine.Machine {
	ms := make([]*machine.Machine, len(c.members))
	for i, mb := range c.members {
		ms[i] = mb.m
	}
	return ms
}

// Machine returns member i.
func (c *Cluster) Machine(i int) *machine.Machine { return c.members[i].m }

// Node returns member i's RPC runtime.
func (c *Cluster) Node(i int) *rpc.Node { return c.members[i].node }

// NetFaults returns the cluster-level fault plan, or nil.
func (c *Cluster) NetFaults() *fault.Plan { return c.netPlan }

// Size returns the member count.
func (c *Cluster) Size() int { return len(c.members) }

// Step advances the cluster one cycle: captured sends from the previous
// cycle enter the stations, then the bridge and the wires — so a frame
// finishing this cycle is deliverable before any machine's devices step
// — then every machine, in station order.
func (c *Cluster) Step() {
	now := c.clock.Tick()
	c.injectSends(now - 1)
	if c.bridge != nil {
		c.bridge.Step()
	}
	for _, s := range c.segs {
		s.Step()
	}
	for _, mb := range c.members {
		mb.m.Step()
	}
}

// Run advances the cluster n cycles, byte-identical to calling Step n
// times. Two regimes, checked in order each iteration:
//
//   - The wire cannot call into any machine for a while (no delivery,
//     no transmit completion or abort before the horizon): a window.
//     Every member machine runs independently through the window —
//     sharded across Workers goroutines when configured — with its
//     sends captured and stamped; then the wire replays the same cycles
//     serially with each send injected at its stamp. Machine.Run
//     big-steps idle members through their own quiet stretches, so a
//     mostly-idle fleet advances at far better than one machine-step
//     per machine-cycle.
//
//   - A wire event is imminent: one serial Step.
//
// A fleet whose every CPU is halted still moves window by window, not
// in one jump. Running fleets never get there: rpc.NewNode boots a Topaz
// kernel on every member, and its idle loop keeps the processors running
// until a caller halts them.
func (c *Cluster) Run(n uint64) {
	end := c.clock.Now() + sim.Cycle(n)
	for now := c.clock.Now(); now < end; now = c.clock.Now() {
		limit := min(end, c.horizon(now)-1)
		if limit <= now+1 {
			c.Step()
			continue
		}
		c.round(uint64(limit - now))
	}
}

// round executes one window of w cycles: machines ahead (phase A), wire
// replay behind (phase B). The horizon guarantees no segment or bridge
// calls into a machine anywhere in the window, so the machines' head
// start is unobservable.
func (c *Cluster) round(w uint64) {
	c.window = w
	sim.Parallel(c.cfg.Workers, len(c.members), c.runMember)
	// Phase B replays the wire from event to event. Between injections
	// and wire events a segment step would only repeat the carrier-sense
	// deferral marks the next event's step makes anyway, and no machine
	// is called, so the clock moves straight to the cycle before it.
	end := c.clock.Now() + sim.Cycle(w)
	stamp := c.nextStamp()
	for now := c.clock.Now(); now < end; now = c.clock.Now() {
		ev := c.wireEvent(now)
		if stamp != sim.Never {
			ev = min(ev, stamp+1)
		}
		if ev > now+1 {
			target := ev - 1
			if target > end {
				target = end
			}
			c.clock.Advance(target - now)
			continue
		}
		now = c.clock.Tick()
		if stamp < now {
			c.injectSends(now - 1)
			stamp = c.nextStamp()
		}
		if c.bridge != nil {
			c.bridge.Step()
		}
		for _, s := range c.segs {
			s.Step()
		}
	}
	// Sends stamped at the window's last cycle become wire-visible at
	// the next cycle's segment step; stage them now so the next horizon
	// sees them queued at their stations.
	c.injectSends(c.clock.Now())
}

// nextStamp returns the earliest stamp among captured, not-yet-injected
// sends, or Never when every member's buffer is drained.
func (c *Cluster) nextStamp() sim.Cycle {
	stamp := sim.Never
	for _, mb := range c.members {
		if mb.cursor < len(mb.sends) {
			stamp = min(stamp, mb.sends[mb.cursor].stamp)
		}
	}
	return stamp
}

// wireEvent returns the earliest future cycle at which a segment or the
// bridge may change state on its own.
func (c *Cluster) wireEvent(now sim.Cycle) sim.Cycle {
	ev := sim.Never
	for _, s := range c.segs {
		ev = min(ev, s.NextEvent(now))
	}
	if c.bridge != nil {
		ev = min(ev, c.bridge.NextEvent(now))
	}
	return ev
}

// horizon returns the first future cycle at which the wire may call
// into a machine: a frame delivery, a transmit completion, or an abort,
// on any segment — or a bridge release, conservatively treated as
// visible. Frames sent during the window (including captured sends not
// yet injected) cannot complete sooner than minVisible after they first
// reach a station, which caps the window even on a silent wire.
func (c *Cluster) horizon(now sim.Cycle) sim.Cycle {
	h := now + 2 + c.minVisible
	if c.nextStamp() != sim.Never {
		h = now + 1 + c.minVisible
	}
	for _, s := range c.segs {
		h = min(h, s.EventHorizon(now))
	}
	if c.bridge != nil {
		h = min(h, c.bridge.NextEvent(now))
	}
	return h
}

// RunSeconds advances the cluster by simulated wall time, rounded to
// the nearest whole cycle like machine.RunSeconds (truncation silently
// lost a cycle for wall-times that are not exact cycle multiples).
func (c *Cluster) RunSeconds(s float64) {
	c.Run(sim.SecondsToCycles(s))
}

// RunUntil advances until pred holds or maxCycles elapse, checking pred
// before every Step; it reports whether pred held. The trigger cycle is
// therefore the first cycle at which pred reads true, whatever state
// pred reads.
func (c *Cluster) RunUntil(pred func() bool, maxCycles uint64) bool {
	end := c.clock.Now() + sim.Cycle(maxCycles)
	for c.clock.Now() < end {
		if pred() {
			return true
		}
		c.Step()
	}
	return pred()
}
