package main

import (
	"fmt"
	"math"
	"slices"

	"firefly/internal/cluster"
	"firefly/internal/experiments"
	"firefly/internal/machine"
	"firefly/internal/model"
	"firefly/internal/rpc"
	"firefly/internal/topaz"
	"firefly/internal/trace"
	"firefly/internal/traffic"
	topazwl "firefly/internal/workload"
)

// A workload is one named rig. Its trial function runs the rig once,
// calling the trial's setup, run and collect around every call into the
// simulator. Each rig derives its simulator seeds as multiples of the
// benchmark seed, so seed 1 builds exactly the machines
// internal/experiments and the repository's Go benchmarks build.
type workload struct {
	name  string
	trial func(t *trial)
}

var workloads = []workload{
	{"table1", table1Trial},
	{"exerciser", exerciserTrial},
	{"traffic", trafficTrial},
	{"fleet-idle", fleetTrial},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// table1NPs are the Table 1 processor counts the sweep simulates.
var table1NPs = []int{2, 4, 6, 8, 10}

// table1Trial sweeps the Table 1 synthetic load (M=0.2, S=0.1) over the
// processor counts and holds each point's total performance against the
// §5.2 model.
func table1Trial(t *trial) {
	p := model.MicroVAX()
	worst := 0.0
	for _, np := range table1NPs {
		pt := table1Point(t, np, t.cycles(600_000), t.cycles(3_000_000))
		mp := p.At(np)
		worst = math.Max(worst, math.Abs(pt.TP-mp.TP)/mp.TP*100)
	}
	t.sim["tp_err_pct"] = worst
	t.check("table1 TP within 15% of the model", worst <= 15, "max error %.2f%%", worst)
}

// table1Point measures one processor count the way
// experiments.SimulateTable1Point does, without its process-wide
// memoization, so every trial simulates.
func table1Point(t *trial, np int, warmup, measure uint64) experiments.Table1SimPoint {
	var m *machine.Machine
	t.setup("construct", func() {
		cfg := machine.MicroVAXConfig(np)
		cfg.Seed = t.seed
		m = machine.New(cfg)
		m.AttachSyntheticLoad(trace.SyntheticLoad{MissRate: 0.2, ShareFraction: 0.1, SharedReadFraction: 0.05})
	})
	t.setup("warmup", func() { m.Warmup(warmup) })
	t.run(fmt.Sprintf("np%d", np), measure, func() { m.Run(measure) })
	var pt experiments.Table1SimPoint
	t.collect(func() {
		rep := m.Report()
		mean := rep.MeanCPU()
		rp := model.MicroVAX().BaseTPI / mean.TPI
		pt = experiments.Table1SimPoint{
			NP: np, Load: rep.BusLoad, TPI: mean.TPI, RP: rp, TP: rp * float64(np), MissRate: mean.MissRate,
		}
		t.c.addMachine(m)
		t.record("np=%d\n%s", np, rep)
	})
	return pt
}

// paperFiveCPU is the paper's Table 2 five-CPU column: per-CPU reads,
// writes and total (K refs/s), MBus total (K ops/s), bus load L and
// miss rate M.
var paperFiveCPU = [6]float64{850, 225, 1075, 1350, 0.54, 0.17}

// exerciserTrial runs the Table 2 threads exerciser on five CPUs, and on
// one CPU for the shape checks that compare the two columns.
func exerciserTrial(t *trial) {
	five := exerciserRow(t, "five", 5, t.cycles(500_000), t.cycles(20_000_000))
	one := exerciserRow(t, "one", 1, t.cycles(500_000), t.cycles(5_000_000))
	sim := [6]float64{five.Reads, five.Writes, five.Total, five.MBusTotal, five.BusLoad, five.MissRate}
	var sum float64
	for i, want := range paperFiveCPU {
		sum += math.Abs(sim[i]-want) / want
	}
	t.sim["table2_err_pct"] = sum / float64(len(sim)) * 100
	// The paper's qualitative findings, as experiments.Table2 checks them.
	t.check("five-CPU bus load well above one-CPU", five.BusLoad > one.BusLoad*1.8,
		"L five %.3f one %.3f", five.BusLoad, one.BusLoad)
	t.check("MShared writes only with >1 CPU", one.MBusWritesShared == 0 && five.MBusWritesShared > 0,
		"one %.1f five %.1f K/s", one.MBusWritesShared, five.MBusWritesShared)
	t.check("write-throughs dominate victims at 5 CPUs", five.MBusWritesShared+five.MBusWritesClean > five.MBusVictims,
		"write-throughs %.1f victims %.1f K/s", five.MBusWritesShared+five.MBusWritesClean, five.MBusVictims)
	t.check("sharing above the model's 10% guess", five.MBusWritesShared > five.MBusWritesClean,
		"shared %.1f clean %.1f K/s", five.MBusWritesShared, five.MBusWritesClean)
	t.check("per-CPU rate drops with contention", five.Total < one.Total,
		"five %.1f one %.1f K refs/s", five.Total, one.Total)
}

// exerciserRow measures one machine the way experiments.MeasureExerciser
// does: a Topaz kernel with a 1500-instruction quantum and 16 exerciser
// threads, 35% of whose data references are shared.
func exerciserRow(t *trial, phase string, n int, warmup, measure uint64) experiments.Table2Row {
	var (
		m  *machine.Machine
		k  *topaz.Kernel
		ex *topazwl.Exerciser
	)
	t.setup("construct", func() {
		cfg := machine.MicroVAXConfig(n)
		cfg.Seed = t.seed
		m = machine.New(cfg)
		k = topaz.NewKernel(m, topaz.Config{Quantum: 1500, Seed: 7 * t.seed})
		ex = topazwl.NewExerciser(k, topazwl.ExerciserConfig{
			Threads: 16, Rounds: 1_000_000, SharedFraction: 0.35, Seed: 11 * t.seed,
		})
	})
	t.setup("warmup", func() {
		ex.Step(warmup)
		m.ResetStats()
	})
	before := k.Stats()
	t.run(phase, measure, func() { ex.Step(measure) })
	var row experiments.Table2Row
	t.collect(func() {
		rep := m.Report()
		mean := rep.MeanCPU()
		row = experiments.Table2Row{
			Processors:       n,
			Reads:            mean.Reads / 1000,
			Writes:           mean.Writes / 1000,
			Total:            mean.Total / 1000,
			MBusReads:        mean.MBusReads / 1000,
			MBusWritesShared: mean.MBusWritesShared / 1000,
			MBusWritesClean:  mean.MBusWritesClean / 1000,
			MBusVictims:      mean.MBusVictims / 1000,
			MBusTotal:        rep.MBusTotal / 1000,
			BusLoad:          rep.BusLoad,
			MissRate:         mean.MissRate,
		}
		t.c.addMachine(m)
		t.c.addKernel(before, k.Stats())
		t.record("%s\n%s%+v", phase, rep, k.Stats())
	})
	return row
}

// The traffic workload's fleet and its two phases: a run below the
// analytic knee, where latency and utilization are checked against the
// M/G/1 model, and one past it, where admission control must shed.
const (
	trafficMachines = 16
	trafficSegments = 4
	trafficQueue    = 8
)

var trafficPhases = []struct {
	name    string
	factor  float64 // offered load as a multiple of the knee
	seconds float64 // simulated
}{
	{"below", 0.8, 0.45},
	{"over", 1.5, 0.2},
}

// trafficTrial drives the make-only open-loop traffic mix through a
// least-outstanding balancer, each phase on a fresh cluster.
func trafficTrial(t *trial) {
	base := traffic.DefaultSpec()
	base.Mix = [traffic.NumClasses]int{0, 1, 0}
	base.Queue = trafficQueue
	base.Seed = t.seed
	backends := trafficMachines - 1
	knee := base.Predict(rpc.Config{}, backends).KneeSessionsPerSecond
	servers := make([]int, backends)
	for i := range servers {
		servers[i] = i + 1
	}
	var issued, failed uint64
	for _, ph := range trafficPhases {
		spec := base
		spec.Rate = knee * ph.factor
		var (
			cl  *cluster.Cluster
			eng *traffic.Engine
		)
		t.setup("construct", func() {
			cfg := cluster.Config{
				Machines: trafficMachines, Segments: trafficSegments, Workers: 1,
				Seed: 11 * t.seed, NodePatch: spec.NodePatch(),
			}
			// Far beyond the ~Queue·E[S] queueing delay, so the latency
			// tail is queueing, not duplicate suppression.
			cfg.Node.RetransmitCycles = 2_000_000
			cl = cluster.New(cfg)
			eng = traffic.Attach(cl, spec)
		})
		before := snapCluster(cl)
		n := t.cycles(ph.seconds * 1e7)
		t.run(ph.name, n*trafficMachines, func() { cl.Run(n) })
		t.collect(func() {
			after := snapCluster(cl)
			t.c.addCluster(cl, before, after, n, servers)
			t.c.sessions += eng.SessionsStarted()
			for i := 0; i < cl.Size(); i++ {
				t.c.outstandingPeak = max(t.c.outstandingPeak, eng.OutstandingPeak(i))
			}
			iss, done, shed, fail := eng.CallsIssued(), eng.CallsCompleted(), eng.CallsShed(), eng.CallsFailed()
			issued += iss
			failed += fail
			inflight := uint64(eng.InFlight())
			t.check(ph.name+": issued = completed + shed + failed + in-flight", iss == done+shed+fail+inflight,
				"%d = %d + %d + %d + %d", iss, done, shed, fail, inflight)
			peak := 0
			for _, i := range servers {
				peak = max(peak, cl.Node(i).QueuePeak())
			}
			t.check(ph.name+": server queue peak within the bound", peak <= trafficQueue, "peak %d, bound %d", peak, trafficQueue)
			misrouted, unroutable := misroutes(cl)
			t.check(ph.name+": no misrouted or unroutable frames", misrouted == 0 && unroutable == 0,
				"misrouted %d unroutable %d", misrouted, unroutable)
			switch ph.name {
			case "below":
				t.check("below: no failed calls", fail == 0, "%d failed", fail)
				h := eng.FleetHist()
				t.sim["p50_ms"] = rpc.CyclesToUS(h.Percentile(0.50)) / 1000
				t.sim["p99_ms"] = rpc.CyclesToUS(h.Percentile(0.99)) / 1000
				var svc uint64
				for _, i := range servers {
					svc += after.nodes[i].ServiceCycles.Value() - before.nodes[i].ServiceCycles.Value()
				}
				util := float64(svc) / (float64(n) * float64(backends))
				rho := spec.Predict(rpc.Config{}, backends).Rho
				t.sim["util_err_pct"] = math.Abs(util-rho) / rho * 100
			case "over":
				t.sim["goodput_calls_s"] = eng.Goodput()
				t.sim["refused_frac"] = ratio(float64(shed+fail), float64(iss))
			}
			t.record("%s\n%s", ph.name, eng.Report())
		})
	}
	t.sim["failed_frac"] = ratio(float64(failed), float64(issued))
}

// misroutes sums the frames nodes dropped as addressed elsewhere and the
// frames the bridge could not route.
func misroutes(cl *cluster.Cluster) (misrouted, unroutable uint64) {
	for i := 0; i < cl.Size(); i++ {
		misrouted += cl.Node(i).Stats().Misrouted.Value()
	}
	if br := cl.Bridge(); br != nil {
		unroutable = br.Stats().Unroutable.Value()
	}
	return misrouted, unroutable
}

// The idle fleet: 64 machines on 8 bridged segments, as the
// repository's fleet benchmarks build it — one RPC server, a
// three-thread caller on its segment and one across the bridge, and
// every other member's CPUs halted.
const (
	fleetMachines = 64
	fleetSegments = 8
	fleetServer   = 0
)

var fleetCallers = []int{1, 9}

func fleetTrial(t *trial) {
	var cl *cluster.Cluster
	t.setup("construct", func() {
		cl = cluster.New(cluster.Config{
			Machines: fleetMachines, Segments: fleetSegments, Workers: 1, Seed: 7 * t.seed,
		})
		cl.Node(fleetServer).StartServer()
		for _, c := range fleetCallers {
			cl.Node(c).StartCallers(3, fleetServer, 0)
		}
		for i := 0; i < cl.Size(); i++ {
			if i == fleetServer || slices.Contains(fleetCallers, i) {
				continue
			}
			m := cl.Machine(i)
			for p := 0; p < m.Config().Processors; p++ {
				m.CPU(p).Halt()
			}
		}
	})
	t.setup("warmup", func() {
		cl.Run(t.cycles(200_000))
		for _, m := range cl.Machines() {
			m.ResetStats()
		}
	})
	before := snapCluster(cl)
	n := t.cycles(8_000_000)
	t.run("measure", n*fleetMachines, func() { cl.Run(n) })
	t.collect(func() {
		after := snapCluster(cl)
		t.c.addCluster(cl, before, after, n, []int{fleetServer})
		var bytes, issued, failed uint64
		for _, c := range fleetCallers {
			b, a := before.nodes[c], after.nodes[c]
			done := a.CallsCompleted.Value() - b.CallsCompleted.Value()
			t.check(fmt.Sprintf("caller %d completes calls", c), done > 0, "%d completed", done)
			bytes += a.BytesMoved.Value() - b.BytesMoved.Value()
			issued += a.CallsIssued.Value() - b.CallsIssued.Value()
			failed += a.CallsFailed.Value() - b.CallsFailed.Value()
		}
		misrouted, unroutable := misroutes(cl)
		t.check("no misrouted or unroutable frames", misrouted == 0 && unroutable == 0,
			"misrouted %d unroutable %d", misrouted, unroutable)
		t.sim["rpc_mbps"] = float64(bytes) * 8 / (float64(n) * 100e-9) / 1e6
		t.sim["failed_frac"] = ratio(float64(failed), float64(issued))
		for i := 0; i < cl.Size(); i++ {
			t.record("node %d %+v", i, after.nodes[i])
		}
		for k := range after.segs {
			t.record("segment %d %+v", k, after.segs[k])
		}
	})
}
