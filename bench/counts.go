package main

import (
	"firefly/internal/cluster"
	"firefly/internal/machine"
	"firefly/internal/net"
	"firefly/internal/rpc"
	"firefly/internal/topaz"
)

// counts accumulates the simulated counters of a trial's measured
// phases, summed over every machine, segment and node. Every field is
// read from the layers' public Stats, so the counts are exact and repeat
// for a fixed seed.
type counts struct {
	instr, ticks, stallTicks uint64 // cpu
	stallCycles              uint64 // stall ticks in bus cycles
	refs, misses             uint64 // core
	snoopProbes, snoopHits   uint64
	busCycles, busBusy       uint64 // mbus
	busOps, busWait          uint64
	dmaOps, dmaWait          uint64 // qbus: the DMA engines' bus ports
	switches, migrations     uint64 // topaz

	frames, deferrals, collisions, bridged uint64  // net
	netUtilMax                             float64 // busiest segment

	serviceCycles, serverCycles  uint64 // rpc: server busy / server available
	calls, retransmits, dupCalls uint64
	queuePeak                    int

	sessions        uint64 // traffic
	outstandingPeak int
}

// addMachine adds one machine's counters since its last ResetStats.
func (c *counts) addMachine(m *machine.Machine) {
	cpus := m.Processors()
	for i, p := range cpus {
		ps := p.Stats()
		c.instr += ps.Instructions
		c.ticks += ps.Ticks
		c.stallTicks += ps.StallTicks
		c.stallCycles += ps.StallTicks * uint64(m.Config().Variant.TickCycles)
		cs := m.Cache(i).Stats()
		c.refs += cs.Reads + cs.Writes
		c.misses += cs.ReadMisses + cs.WriteMisses
		c.snoopProbes += cs.SnoopProbes
		c.snoopHits += cs.SnoopHits
	}
	bs := m.Bus().Stats()
	c.busCycles += bs.Cycles
	c.busBusy += bs.BusyCycles
	c.busOps += bs.TotalOps()
	c.busWait += bs.WaitCycles
	// Ports after the processors' belong to the QBus DMA engines.
	for port := len(cpus); port < len(bs.PerPort); port++ {
		c.dmaOps += bs.PerPort[port]
		c.dmaWait += bs.WaitPerPort[port]
	}
}

// addKernel adds the scheduler activity between two kernel snapshots.
func (c *counts) addKernel(before, after topaz.Stats) {
	c.switches += after.ContextSwitches - before.ContextSwitches
	c.migrations += after.Migrations - before.Migrations
}

// clusterSnap holds a cluster's cumulative counters, which ResetStats
// does not clear, so a phase reads them as differences.
type clusterSnap struct {
	nodes  []rpc.NodeStats
	kerns  []topaz.Stats
	segs   []net.Stats
	bridge net.BridgeStats
}

func snapCluster(cl *cluster.Cluster) clusterSnap {
	var s clusterSnap
	for i := 0; i < cl.Size(); i++ {
		s.nodes = append(s.nodes, cl.Node(i).Stats())
		s.kerns = append(s.kerns, cl.Node(i).Kernel().Stats())
	}
	for k := 0; k < cl.NumSegments(); k++ {
		s.segs = append(s.segs, cl.SegmentAt(k).Stats())
	}
	if br := cl.Bridge(); br != nil {
		s.bridge = br.Stats()
	}
	return s
}

// addCluster adds a measured phase of n cluster cycles: every member's
// machine counters (reset at the phase start), and the differences of
// the node, kernel, segment and bridge counters between the snapshots.
// servers are the members that serve calls.
func (c *counts) addCluster(cl *cluster.Cluster, before, after clusterSnap, n uint64, servers []int) {
	for i := 0; i < cl.Size(); i++ {
		c.addMachine(cl.Machine(i))
		c.addKernel(before.kerns[i], after.kerns[i])
		b, a := before.nodes[i], after.nodes[i]
		c.calls += a.CallsIssued.Value() - b.CallsIssued.Value()
		c.retransmits += a.Retransmits.Value() - b.Retransmits.Value()
		c.dupCalls += a.DupCalls.Value() - b.DupCalls.Value()
		c.queuePeak = max(c.queuePeak, cl.Node(i).QueuePeak())
	}
	for _, i := range servers {
		c.serviceCycles += after.nodes[i].ServiceCycles.Value() - before.nodes[i].ServiceCycles.Value()
		c.serverCycles += n
	}
	for k := range after.segs {
		b, a := before.segs[k], after.segs[k]
		c.frames += a.Frames.Value() - b.Frames.Value()
		c.deferrals += a.Deferrals.Value() - b.Deferrals.Value()
		c.collisions += a.Collisions.Value() - b.Collisions.Value()
		util := float64(a.BusyCycles.Value()-b.BusyCycles.Value()) / float64(n)
		c.netUtilMax = max(c.netUtilMax, util)
	}
	c.bridged += after.bridge.Forwarded.Value() - before.bridge.Forwarded.Value()
}

// layerMetrics derives the simulated per-layer metrics over kcycles
// measured machine-kcycles. A layer the workload does not exercise
// reads 0.
func (c *counts) layerMetrics(kcycles float64) map[string]float64 {
	f := func(v uint64) float64 { return float64(v) }
	return map[string]float64{
		"cpu.tpi":                     ratio(f(c.ticks), f(c.instr)),
		"cpu.stall_frac":              ratio(f(c.stallTicks), f(c.ticks)),
		"core.miss_rate":              ratio(f(c.misses), f(c.refs)),
		"core.snoop_hit_frac":         ratio(f(c.snoopHits), f(c.snoopProbes)),
		"core.stall_cycles_per_miss":  ratio(f(c.stallCycles), f(c.misses)),
		"mbus.load":                   ratio(f(c.busBusy), f(c.busCycles)),
		"mbus.wait_per_op":            ratio(f(c.busWait), f(c.busOps)),
		"mbus.ops_per_kcycle":         ratio(f(c.busOps), kcycles),
		"topaz.switches_per_kcycle":   ratio(f(c.switches), kcycles),
		"topaz.migrations_per_kcycle": ratio(f(c.migrations), kcycles),
		"qbus.dma_words_per_kcycle":   ratio(f(c.dmaOps), kcycles),
		"qbus.stall_per_word":         ratio(f(c.dmaWait), f(c.dmaOps)),
		"net.util_max":                c.netUtilMax,
		"net.deferral_frac":           ratio(f(c.deferrals), f(c.frames)),
		"net.collisions_per_frame":    ratio(f(c.collisions), f(c.frames)),
		"net.bridge_forwarded":        f(c.bridged),
		"rpc.backend_util":            ratio(f(c.serviceCycles), f(c.serverCycles)),
		"rpc.queue_peak":              float64(c.queuePeak),
		"rpc.retransmit_frac":         ratio(f(c.retransmits), f(c.calls)),
		"rpc.dup_calls":               f(c.dupCalls),
		"traffic.sessions":            f(c.sessions),
		"traffic.outstanding_peak":    float64(c.outstandingPeak),
	}
}
