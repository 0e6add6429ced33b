package traffic

import (
	"fmt"
	"strings"
	"testing"

	"firefly/internal/cluster"
	"firefly/internal/machine"
	"firefly/internal/rpc"
)

// privateCounter wraps a machine's scheduler and counts the instruction
// boundaries its processors crossed in private runs.
type privateCounter struct {
	machine.Scheduler
	boundaries uint64
}

func (c *privateCounter) PrivateDone(proc int, boundaries uint64) {
	c.boundaries += boundaries
	c.Scheduler.PrivateDone(proc, boundaries)
}

// privateFleet builds the benchmark's traffic fleet: 16 two-processor
// machines on 4 bridged segments, the make-only mix through a
// least-outstanding balancer at factor times the analytic knee, server
// queues of 8 and a retransmission timeout far beyond the queueing
// delay.
func privateFleet(seed uint64, factor float64) (*cluster.Cluster, *Engine) {
	const machines = 16
	spec := DefaultSpec()
	spec.Mix = [NumClasses]int{0, 1, 0}
	spec.Queue = 8
	spec.Seed = seed
	spec.Rate = spec.Predict(rpc.Config{}, machines-1).KneeSessionsPerSecond * factor
	cfg := cluster.Config{Machines: machines, Segments: 4, Workers: 1, Seed: 11 * seed, NodePatch: spec.NodePatch()}
	cfg.Node.RetransmitCycles = 2_000_000
	cl := cluster.New(cfg)
	return cl, Attach(cl, spec)
}

// fleetState renders everything a run of the fleet produced: the traffic
// report, the clock, and per machine the registry, every processor's and
// cache's Stats, the kernel's Stats and the node's Stats.
func fleetState(cl *cluster.Cluster, eng *Engine) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\nclock %d\n", eng.Report(), cl.Clock().Now())
	for i, m := range cl.Machines() {
		fmt.Fprintf(&b, "== machine %d ==\n%s\n", i, m.Registry().String())
		for p, cpu := range m.Processors() {
			fmt.Fprintf(&b, "cpu%d %+v\ncache%d %+v\n", p, cpu.Stats(), p, m.Cache(p).Stats())
		}
		fmt.Fprintf(&b, "kernel %+v\nnode %+v\n", cl.Node(i).Kernel().Stats(), cl.Node(i).Stats())
	}
	return b.String()
}

// TestPrivateRunDifferential is the Run-vs-Step differential for private
// runs (DESIGN.md, "Private runs"): the benchmark's traffic fleet,
// shortened, below and past the knee, once stepped cycle by cycle and
// once through cluster.Run, whose machines tick idle and
// context-switching processors alone through each private horizon.
// Every report and counter must agree, and private runs must have
// carried a real share of the instruction boundaries.
func TestPrivateRunDifferential(t *testing.T) {
	const cycles = 400_000
	for _, ph := range []struct {
		name   string
		factor float64
	}{{"below", 0.8}, {"over", 1.5}} {
		ph := ph
		t.Run(ph.name, func(t *testing.T) {
			t.Parallel()
			slow, slowEng := privateFleet(1, ph.factor)
			for i := 0; i < cycles; i++ {
				slow.Step()
			}
			fast, fastEng := privateFleet(1, ph.factor)
			counters := make([]*privateCounter, fast.Size())
			for i, m := range fast.Machines() {
				counters[i] = &privateCounter{Scheduler: fast.Node(i).Kernel()}
				m.SetScheduler(counters[i])
			}
			fast.Run(cycles)
			if got, want := fleetState(fast, fastEng), fleetState(slow, slowEng); got != want {
				t.Fatalf("Run and Step diverged\n--- Run ---\n%s\n--- Step ---\n%s", got, want)
			}
			var private, all uint64
			for i, m := range fast.Machines() {
				private += counters[i].boundaries
				for _, p := range m.Processors() {
					all += p.Stats().Instructions
				}
			}
			if slowEng.CallsCompleted() == 0 {
				t.Error("no call completed; the fleet carried no traffic")
			}
			t.Logf("private %d of %d boundaries, calls %d", private, all, slowEng.CallsCompleted())
			if private*10 < all {
				t.Errorf("private runs crossed %d of %d instruction boundaries; want at least a tenth", private, all)
			}
		})
	}
}
