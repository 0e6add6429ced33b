package machine

import (
	"fmt"
	"testing"

	"firefly/internal/mbus"
	"firefly/internal/trace"
)

// stepN advances the machine cycle-by-cycle, bypassing Run's idle
// skip-ahead, to serve as the reference behaviour for the fast path.
func stepN(m *Machine, n uint64) {
	for i := uint64(0); i < n; i++ {
		m.Step()
	}
}

func haltAll(m *Machine) {
	for i := 0; i < m.Config().Processors; i++ {
		m.CPU(i).Halt()
	}
}

// TestIdleSkipEquivalence runs two identical machines through the same
// schedule — load, halt, idle tail — once through Run (which may bulk
// skip the idle tail) and once stepped cycle-by-cycle, and demands
// identical clocks and an identical report.
func TestIdleSkipEquivalence(t *testing.T) {
	load := trace.SyntheticLoad{MissRate: 0.2, ShareFraction: 0.1, SharedReadFraction: 0.05}
	build := func() *Machine {
		m := New(MicroVAXConfig(3))
		m.AttachSyntheticLoad(load)
		return m
	}
	fast, slow := build(), build()

	fast.Run(20_000)
	stepN(slow, 20_000)
	haltAll(fast)
	haltAll(slow)
	// The idle tail: Run should detect quiescence (after draining any
	// in-flight cache work step-by-step) and jump; stepN grinds through
	// every cycle.
	fast.Run(50_000)
	stepN(slow, 50_000)

	if fc, sc := fast.Clock().Now(), slow.Clock().Now(); fc != sc {
		t.Fatalf("clock diverged: skip path %d, stepped %d", fc, sc)
	}
	if fb, sb := fast.Bus().Stats().Cycles, slow.Bus().Stats().Cycles; fb != sb {
		t.Fatalf("bus cycle count diverged: skip path %d, stepped %d", fb, sb)
	}
	if fr, sr := fmt.Sprint(fast.Report()), fmt.Sprint(slow.Report()); fr != sr {
		t.Fatalf("reports diverged\n--- skip path ---\n%s\n--- stepped ---\n%s", fr, sr)
	}

	// Resuming after the skip must behave normally again.
	for i := 0; i < fast.Config().Processors; i++ {
		fast.CPU(i).Resume()
		slow.CPU(i).Resume()
	}
	fast.Run(10_000)
	stepN(slow, 10_000)
	if fr, sr := fmt.Sprint(fast.Report()), fmt.Sprint(slow.Report()); fr != sr {
		t.Fatalf("post-resume reports diverged\n--- skip path ---\n%s\n--- stepped ---\n%s", fr, sr)
	}
}

// TestIdleSkipAdvancesClock checks the skip actually fires: a machine
// with every processor halted must cover a long Run in a bulk jump with
// the bus cycle counter kept in step with the clock.
func TestIdleSkipAdvancesClock(t *testing.T) {
	m := New(MicroVAXConfig(2))
	m.AttachSyntheticLoad(trace.SyntheticLoad{MissRate: 0.2})
	haltAll(m)
	const n = 100_000_000 // far too many cycles to tour component-by-component in test time
	m.Run(n)
	if got := uint64(m.Clock().Now()); got != n {
		t.Fatalf("clock at %d after Run(%d)", got, n)
	}
	if got := m.Bus().Stats().Cycles; got != n {
		t.Fatalf("bus cycles %d after Run(%d)", got, n)
	}
}

// TestResetStatsInQuietWindow: statistics cleared at a cycle inside a
// quiet window, where Run moves the clock without stepping the bus,
// count from that cycle on. The bus counters and the report match a
// stepped twin's, and the bus cycle count is exactly the cycles run since
// the reset.
func TestResetStatsInQuietWindow(t *testing.T) {
	build := func() *Machine {
		m := New(MicroVAXConfig(3))
		m.AttachSyntheticLoad(trace.SyntheticLoad{MissRate: 0.02, ShareFraction: 0.05})
		return m
	}
	fast, slow := build(), build()
	fast.Run(20_000)
	stepN(slow, 20_000)
	for now := fast.Clock().Now(); fast.Bus().Busy() || fast.nextEvent(now) <= now+1; now = fast.Clock().Now() {
		fast.Run(1)
		stepN(slow, 1)
	}
	fast.ResetStats()
	slow.ResetStats()
	const n = 30_000
	fast.Run(n)
	stepN(slow, n)
	fb, sb := fast.Bus().Stats(), slow.Bus().Stats()
	if fmt.Sprintf("%+v", fb) != fmt.Sprintf("%+v", sb) {
		t.Fatalf("bus stats diverged\nrun  %+v\nstep %+v", fb, sb)
	}
	if fb.Cycles != n || fast.Registry().MustValue("bus.cycles") != n {
		t.Fatalf("bus cycles %d (registry %d) after a reset and Run(%d)",
			fb.Cycles, fast.Registry().MustValue("bus.cycles"), n)
	}
	if fb.BusyCycles == 0 || fb.BusyCycles*5 > fb.Cycles {
		t.Fatalf("bus busy %d of %d cycles: want a loaded but mostly quiet bus", fb.BusyCycles, fb.Cycles)
	}
	if fr, sr := fmt.Sprint(fast.Report()), fmt.Sprint(slow.Report()); fr != sr {
		t.Fatalf("reports diverged\n--- run ---\n%s\n--- stepped ---\n%s", fr, sr)
	}
}

// TestRunSecondsRounds pins the satellite fix: RunSeconds rounds to the
// nearest cycle instead of truncating. 150 ns is 1.5 cycles; truncation
// ran 1 cycle, rounding runs 2.
func TestRunSecondsRounds(t *testing.T) {
	m := New(MicroVAXConfig(1))
	haltAll(m) // clock advance is all we measure
	m.RunSeconds(150e-9)
	if got := uint64(m.Clock().Now()); got != 2 {
		t.Fatalf("RunSeconds(150ns) advanced %d cycles, want 2 (rounded)", got)
	}
}

// TestStepZeroAllocsAnyArbiter extends the hot-loop allocation contract
// to the policy layer: no arbiter, dispatched through the Arbiter
// interface, may allocate per cycle — fcfs in particular must reuse its
// queue storage once grown.
func TestStepZeroAllocsAnyArbiter(t *testing.T) {
	for _, name := range mbus.ArbiterNames() {
		t.Run(name, func(t *testing.T) {
			arb, ok := mbus.NewArbiterByName(name)
			if !ok {
				t.Fatalf("unknown arbiter %q", name)
			}
			cfg := MicroVAXConfig(3)
			cfg.Arbiter = arb
			m := New(cfg)
			m.AttachSyntheticLoad(stdLoad)
			m.Run(10_000) // warm caches, internal buffers, and the fcfs queue
			avg := testing.AllocsPerRun(2000, func() { m.Step() })
			if avg != 0 {
				t.Fatalf("machine.Step with %s arbiter allocates %.2f times per cycle, want 0", name, avg)
			}
		})
	}
}

// TestStepZeroAllocsLoadedRun extends the hot-loop allocation contract to
// Run on a loaded bus, where Run steps the bus, caches and devices every
// cycle but ticks only the processors that are due, without calling Step:
// the path the table1 and exerciser sweeps spend most of their cycles on.
func TestStepZeroAllocsLoadedRun(t *testing.T) {
	// table1Load is the Table 1 sweep's load; at 10 CPUs it keeps most
	// processors parked on their caches' bus operations.
	table1Load := trace.SyntheticLoad{MissRate: 0.2, ShareFraction: 0.1, SharedReadFraction: 0.05}
	for _, name := range mbus.ArbiterNames() {
		t.Run(name, func(t *testing.T) {
			for _, rig := range []struct {
				cpus int
				load trace.SyntheticLoad
			}{{5, stdLoad}, {10, table1Load}} {
				t.Run(fmt.Sprintf("%dcpu", rig.cpus), func(t *testing.T) {
					arb, ok := mbus.NewArbiterByName(name)
					if !ok {
						t.Fatalf("unknown arbiter %q", name)
					}
					cfg := MicroVAXConfig(rig.cpus)
					cfg.Arbiter = arb
					m := New(cfg)
					m.AttachSyntheticLoad(rig.load)
					m.Run(20_000) // warm caches, internal buffers, and the fcfs queue
					before := m.Bus().Stats()
					avg := testing.AllocsPerRun(200, func() { m.Run(5_000) })
					if avg != 0 {
						t.Fatalf("machine.Run on a loaded bus with %s arbiter allocates %.2f times per call, want 0", name, avg)
					}
					after := m.Bus().Stats()
					busy, cycles := after.BusyCycles-before.BusyCycles, after.Cycles-before.Cycles
					if busy*10 < cycles*3 {
						t.Fatalf("bus busy %d of %d measured cycles, want at least 30%%: the measured Runs were not loaded", busy, cycles)
					}
				})
			}
		})
	}
}
