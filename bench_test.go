// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per artifact, wrapping the drivers in
// internal/experiments), the ablations DESIGN.md calls out, and
// microbenchmarks of the simulator's hot paths. Regenerate everything
// with:
//
//	go test -bench=. -benchmem
//
// Table/figure benchmarks report domain metrics via b.ReportMetric where
// a single number summarizes the artifact.
package firefly_test

import (
	"fmt"
	"testing"

	"firefly"
	"firefly/internal/cluster"
	"firefly/internal/core"
	"firefly/internal/display"
	"firefly/internal/experiments"
	"firefly/internal/machine"
	"firefly/internal/mbus"
	"firefly/internal/memory"
	"firefly/internal/model"
	"firefly/internal/qbus"
	"firefly/internal/rpc"
	"firefly/internal/sim"
	"firefly/internal/topaz"
)

// BenchmarkTable1 regenerates Table 1 (estimated performance) from the
// §5.2 analytic model.
func BenchmarkTable1(b *testing.B) {
	var tp float64
	for i := 0; i < b.N; i++ {
		pts := model.Table1()
		tp = pts[len(pts)-1].TP
	}
	b.ReportMetric(tp, "TP@12cpu")
}

// BenchmarkTable1Simulated cross-checks Table 1 on the cycle simulator,
// running the full NP sweep through the sweep engine (parallel across
// points when GOMAXPROCS allows).
func BenchmarkTable1Simulated(b *testing.B) {
	var out experiments.Outcome
	for i := 0; i < b.N; i++ {
		out = experiments.Table1Sim(experiments.Options{})
	}
	if len(out.Text) == 0 {
		b.Fatal("empty outcome")
	}
}

// BenchmarkTable2 regenerates Table 2 (measured performance) by running
// the threads exerciser on a five-CPU machine.
func BenchmarkTable2(b *testing.B) {
	var row experiments.Table2Row
	for i := 0; i < b.N; i++ {
		row = experiments.MeasureExerciser(5, 100_000, 1_000_000)
	}
	b.ReportMetric(row.Total, "refs/s/cpu")
	b.ReportMetric(row.BusLoad, "busload")
}

// BenchmarkFigure3Transitions exercises every arc of the Figure 3 state
// diagram through the cache controller.
func BenchmarkFigure3Transitions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := experiments.Figure3(experiments.Options{})
		if len(out.Text) == 0 {
			b.Fatal("empty outcome")
		}
	}
}

// BenchmarkFigure4Timing runs the scripted MRead/MWrite pair that renders
// the Figure 4 bus timing.
func BenchmarkFigure4Timing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := experiments.Figure4(experiments.Options{})
		if len(out.Text) == 0 {
			b.Fatal("empty outcome")
		}
	}
}

// BenchmarkProtocolComparison runs the coherence protocol bake-off
// (X-proto in DESIGN.md).
func BenchmarkProtocolComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ProtocolComparison(experiments.Options{})
	}
}

// BenchmarkMigrationAblation measures the scheduler's migration avoidance
// (X-migrate).
func BenchmarkMigrationAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.MigrationAblation(experiments.Options{})
	}
}

// BenchmarkCVAXSpeedup measures the second-version upgrade (X-cvax).
func BenchmarkCVAXSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.CVAXSpeedup(experiments.Options{})
	}
}

// BenchmarkRPCThroughput measures the §6 RPC bandwidth knee (X-rpc).
func BenchmarkRPCThroughput(b *testing.B) {
	var mbps float64
	for i := 0; i < b.N; i++ {
		mbps = rpc.Run(rpc.Config{}, 3, 0.5).Mbps
	}
	b.ReportMetric(mbps, "Mbit/s@3threads")
}

// BenchmarkQBusLoad measures DMA bandwidth consumption (X-qbus).
func BenchmarkQBusLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.QBusLoad(experiments.Options{})
	}
}

// BenchmarkMDCThroughput measures display controller paint rates (X-mdc).
func BenchmarkMDCThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.MDCThroughput(experiments.Options{})
	}
}

// BenchmarkParallelMake measures the §6 parallel make speedup (X-make).
func BenchmarkParallelMake(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ParallelMake(experiments.Options{})
	}
}

// BenchmarkFigure2Structure instantiates the Topaz structure (Figure 2).
func BenchmarkFigure2Structure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure2(experiments.Options{})
	}
}

// BenchmarkSyscallEmulation measures the Ultrix emulation cost
// (§6 footnote 5).
func BenchmarkSyscallEmulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.SyscallEmulation(experiments.Options{})
	}
}

// BenchmarkGCOffload runs the concurrent garbage collection experiment
// (§6's collector-on-another-processor claim).
func BenchmarkGCOffload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.GCOffload(experiments.Options{})
	}
}

// BenchmarkFileIO runs the file system read-ahead / write-behind
// experiment (§6).
func BenchmarkFileIO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.FileIO(experiments.Options{})
	}
}

// BenchmarkLineSize runs the cache line size ablation.
func BenchmarkLineSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.LineSizeAblation(experiments.Options{})
	}
}

// BenchmarkOnChipData runs the CVAX on-chip data cache ablation.
func BenchmarkOnChipData(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.OnChipDataAblation(experiments.Options{})
	}
}

// BenchmarkSweepSerial runs the Table 1 sweep pinned to one worker — the
// baseline for BenchmarkSweepParallel. The two must produce byte-identical
// Outcome.Text (see TestSweepDeterministic); only wall time may differ.
func BenchmarkSweepSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1Sim(experiments.Options{Workers: 1})
	}
}

// BenchmarkSweepParallel runs the same sweep with one worker per
// available CPU. On a multi-core runner this should approach
// serial/NumCPU; on a single core it measures pool overhead.
func BenchmarkSweepParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1Sim(experiments.Options{})
	}
}

// --- Microbenchmarks of the simulator's hot paths ---

// BenchmarkCacheHit measures the cache controller's hit path.
func BenchmarkCacheHit(b *testing.B) {
	clock := &sim.Clock{}
	bus := mbus.New(clock, nil, memory.NewMicroVAXSystem(1))
	c := core.NewMicroVAXCache(clock, core.Firefly{})
	bus.Attach(c, c, nil)
	// Fill one line via the bus.
	c.Submit(core.Access{Write: true, Addr: 0x40, Data: 1})
	for c.Busy() {
		clock.Tick()
		bus.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Submit(core.Access{Addr: 0x40})
	}
}

// BenchmarkBusTransaction measures a full four-cycle MBus operation.
func BenchmarkBusTransaction(b *testing.B) {
	clock := &sim.Clock{}
	bus := mbus.New(clock, nil, memory.NewMicroVAXSystem(1))
	c := core.NewMicroVAXCache(clock, core.Firefly{})
	bus.Attach(c, c, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Submit(core.Access{Write: true, Addr: mbus.Addr(i*4) & 0xfffff, Data: uint32(i)})
		for c.Busy() {
			clock.Tick()
			bus.Step()
		}
	}
}

// BenchmarkMachineCycle measures one whole-machine step of a 5-CPU
// Firefly under load. Compare with BenchmarkMachineCycleTraced: the
// difference is the total cost of the observability layer's nil checks,
// which must stay in the noise.
func BenchmarkMachineCycle(b *testing.B) {
	m := machine.New(machine.MicroVAXConfig(5))
	m.AttachSyntheticLoad(firefly.SyntheticLoad{MissRate: 0.2, ShareFraction: 0.1, SharedReadFraction: 0.05})
	m.Warmup(10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}

// BenchmarkMachineCycleTraced is the same machine with tracing enabled
// into a ring buffer — the upper bound a live capture costs.
func BenchmarkMachineCycleTraced(b *testing.B) {
	m := machine.New(machine.MicroVAXConfig(5))
	m.AttachSyntheticLoad(firefly.SyntheticLoad{MissRate: 0.2, ShareFraction: 0.1, SharedReadFraction: 0.05})
	m.Trace(firefly.NewTraceRing(1 << 16))
	m.Warmup(10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}

// BenchmarkMachineCycleIdle measures the effective per-cycle cost of a
// machine whose processors are halted while a disk re-queues reads
// forever: the workload is nothing but seek waits, DMA word pacing,
// and completion interrupts, so Run spends almost every cycle in the
// event-scan-and-skip path. Each benchmark iteration is one machine
// cycle (Run(b.N)), so ns/op is the effective ns per idle cycle — the
// number the big-step path exists to shrink.
func BenchmarkMachineCycleIdle(b *testing.B) {
	m := machine.New(machine.MicroVAXConfig(5))
	m.AttachSyntheticLoad(firefly.SyntheticLoad{MissRate: 0.2, ShareFraction: 0.1, SharedReadFraction: 0.05})
	maps := &qbus.MapRegisters{}
	maps.MapRange(0, 0x40000, 1<<15)
	eng := qbus.NewEngine(m.Clock(), m.Bus(), maps, 0)
	disk := qbus.NewDisk(m.Clock(), m.Bus(), eng, qbus.DiskConfig{})
	m.AddDevice(eng)
	m.AddDevice(disk)
	m.Warmup(10_000)
	for i := 0; i < m.Config().Processors; i++ {
		m.CPU(i).Halt()
	}
	var requeue func()
	requeue = func() { disk.Read(3, 0, requeue) }
	requeue()
	b.ResetTimer()
	m.Run(uint64(b.N))
}

// BenchmarkPrivateRun measures private runs (DESIGN.md "Private runs")
// alone: a 2-CPU MicroVAX machine under a Topaz kernel with no threads,
// so both processors run the idle loop out of their own caches, run in
// Run(152) calls, the window length of the traffic fleet's cluster
// engine. ns/instr is host time per simulated instruction.
func BenchmarkPrivateRun(b *testing.B) {
	m := machine.New(machine.MicroVAXConfig(2))
	topaz.NewKernel(m, topaz.Config{})
	m.Warmup(200_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Run(152)
	}
	b.StopTimer()
	instructions := m.CPU(0).Stats().Instructions + m.CPU(1).Stats().Instructions
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instructions), "ns/instr")
}

// BenchmarkClusterCycle measures one lockstep step of a two-Firefly
// cluster carrying live RPC traffic: the shared wire plus two 2-CPU
// MicroVAX machines, each with a Topaz kernel, a DEQNA, and DMA in
// flight. Compare with BenchmarkClusterMemberCycle — the ratio is what
// the second machine and the Ethernet cost per cluster cycle.
func BenchmarkClusterCycle(b *testing.B) {
	cl := cluster.New(cluster.Config{Seed: 7})
	cl.Node(1).StartServer()
	cl.Node(0).StartCallers(3, 1, 0)
	cl.Run(200_000) // fill the RPC pipeline
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.Step()
	}
}

// BenchmarkClusterMemberCycle is the single-machine baseline for
// BenchmarkClusterCycle: one 2-CPU MicroVAX of the cluster's member
// configuration stepping alone under a comparable synthetic load, no
// wire and no second machine.
func BenchmarkClusterMemberCycle(b *testing.B) {
	m := machine.New(machine.MicroVAXConfig(2))
	m.AttachSyntheticLoad(firefly.SyntheticLoad{MissRate: 0.2, ShareFraction: 0.1, SharedReadFraction: 0.05})
	m.Warmup(10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}

// BenchmarkClusterRPC pushes RPC calls across the simulated wire at the
// §6 knee (three caller threads) and reports the payload bandwidth the
// cluster sustains.
func BenchmarkClusterRPC(b *testing.B) {
	var mbps float64
	for i := 0; i < b.N; i++ {
		const secs = 0.1
		cl := cluster.New(cluster.Config{Seed: 7})
		cl.Node(1).StartServer()
		cl.Node(0).StartCallers(3, 1, 0)
		cl.RunSeconds(secs)
		mbps = float64(cl.Node(0).Stats().BytesMoved.Value()) * 8 / secs / 1e6
	}
	b.ReportMetric(mbps, "Mbit/s@3threads")
}

// buildFleet constructs the bridged fleet the scaling benchmarks
// share: nodes machines at eight per Ethernet segment, stepped by up
// to workers goroutines inside each window, one RPC server
// on segment 0, a three-thread caller on the same wire, and a
// three-thread caller across the bridge. The remaining machines are
// quiesced — CPUs halted, no kernel threads — the fleet shape where a
// few nodes carry traffic and the rest sit powered on but idle, which
// is exactly where the windowed engine's machine-level big-stepping
// pays (an idle member costs one next-event scan per window instead of
// a Step per cycle).
func buildFleet(nodes, workers int) *cluster.Cluster {
	cl := cluster.New(cluster.Config{Machines: nodes, Segments: nodes / 8, Workers: workers, Seed: 7})
	cl.Node(0).StartServer()
	cl.Node(1).StartCallers(3, 0, 0)
	cl.Node(9).StartCallers(3, 0, 0)
	for i := 2; i < cl.Size(); i++ {
		if i == 9 {
			continue
		}
		m := cl.Machine(i)
		for p := 0; p < m.Config().Processors; p++ {
			m.CPU(p).Halt()
		}
	}
	cl.Run(200_000) // fill the RPC pipeline
	return cl
}

// BenchmarkFleetCycleStep is the serial baseline for the fleet: the
// per-cycle Step loop pays the full cost of ticking all 64 machines,
// 8 segments, and the bridge every cluster cycle, busy or not. This is
// what every cluster cycle cost before the windowed engine.
func BenchmarkFleetCycleStep(b *testing.B) {
	cl := buildFleet(64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.Step()
	}
}

// BenchmarkFleetCycleRun drives fleets of varying size through the
// windowed engine at varying worker counts: machines big-step
// independently inside each event-free window, so idle members skip
// their quiet stretches instead of paying per-cycle overhead, and the
// in-window runs shard across workers. The wire replay behind each
// window then steps the segments and bridge only at wire events and
// send injections, skipping the cycles between them. Output is
// byte-identical at any worker count by the engine's determinism
// contract; ns/op is one cluster cycle, so aggregate machine-cycles/sec
// = nodes / ns_op.
func BenchmarkFleetCycleRun(b *testing.B) {
	for _, nodes := range []int{16, 64} {
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("nodes=%d/workers=%d", nodes, workers), func(b *testing.B) {
				cl := buildFleet(nodes, workers)
				b.ResetTimer()
				cl.Run(uint64(b.N))
			})
		}
	}
}

// BenchmarkBitBlt measures a 64x64 frame buffer copy.
func BenchmarkBitBlt(b *testing.B) {
	src := display.NewBitmap(256, 256)
	dst := display.NewBitmap(256, 256)
	display.Fill(src, display.Rect{X: 0, Y: 0, W: 256, H: 256}, display.OpSet)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		display.BitBlt(dst, display.Rect{X: 8, Y: 8, W: 64, H: 64}, src, 0, 0, display.OpXor)
	}
}

// BenchmarkRPCMarshal measures message marshalling.
func BenchmarkRPCMarshal(b *testing.B) {
	payload := make([]byte, 1024)
	msg := &rpc.Message{Kind: rpc.Call, ID: 1, Proc: 7, Payload: payload}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := msg.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rpc.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelInversion measures the L(NP) numeric inversion.
func BenchmarkModelInversion(b *testing.B) {
	p := firefly.MicroVAXModel()
	for i := 0; i < b.N; i++ {
		p.LoadFor(float64(2 + i%10))
	}
}
