package topaz

import (
	"testing"

	"firefly/internal/core"
	"firefly/internal/fault"
	"firefly/internal/machine"
	"firefly/internal/sim"
	"firefly/internal/trace"
)

// privateRig returns a kernel on a warmed two-processor MicroVAX machine
// whose processor 1 is halted and whose processor 0 is idle, with its
// idle and kernel working sets resident with local write permission:
// the state in which PrivateHorizon grants a horizon. faults installs an
// all-zero fault plan.
func privateRig(t *testing.T, faults bool) *Kernel {
	t.Helper()
	cfg := machine.MicroVAXConfig(2)
	if faults {
		cfg.Faults = &fault.Config{}
	}
	m := machine.New(cfg)
	m.CPU(1).Halt()
	k := NewKernel(m, Config{})
	ps := k.procs[0]
	// Run processor 0 on the kernel working set long enough to write
	// every line of it, then idle. The kernel does not schedule it
	// meanwhile: it would take the processor for idle.
	m.SetScheduler(nil)
	m.CPU(0).SetSource(ps.src.kern)
	m.Run(20_000)
	m.CPU(0).SetSource(ps.src)
	m.SetScheduler(k)
	m.Run(20_000)
	if ps.cur != nil || ps.switchLeft != 0 || m.CPU(0).Waiting() {
		t.Fatalf("processor 0 not idle after warm-up: cur %v switchLeft %d", ps.cur, ps.switchLeft)
	}
	for name, ws := range map[string]*trace.WorkingSet{"idle": ps.src.idle, "kernel": ps.src.kern} {
		if !m.Cache(0).HitsLocally(ws.Lines()) {
			t.Fatalf("%s working set not resident with local write permission after warm-up", name)
		}
	}
	return k
}

// switching puts processor 0 into context-switch overhead with left
// kernel instructions to go, as dispatch leaves it.
func switching(k *Kernel, left uint64) {
	ps := k.procs[0]
	ps.switchLeft, ps.src.inKern = left, true
}

// stepUntil steps the machine one cycle at a time until cond holds.
func stepUntil(t *testing.T, m *machine.Machine, cond func() bool) {
	t.Helper()
	for i := 0; !cond(); i++ {
		if i == 100_000 {
			t.Fatal("condition never reached")
		}
		m.Step()
	}
}

// TestPrivateHorizonGrants pins the horizon's value in the cases it
// grants: sim.Never for an idle machine with no sleeper, the earliest
// wake exactly, and, in switch overhead, (switchLeft−1)·floor(BaseTPI)
// ticks from the next boundary. PrivateSet names the idle set, and in
// switch overhead the kernel set.
func TestPrivateHorizonGrants(t *testing.T) {
	k := privateRig(t, false)
	now := k.m.Clock().Now()
	if h := k.PrivateHorizon(now); h != sim.Never {
		t.Fatalf("idle machine without sleepers: horizon %d, want sim.Never", h)
	}
	if k.PrivateSet(0) != k.procs[0].src.idle {
		t.Fatal("idle processor: PrivateSet is not the idle set")
	}

	k.sleepers = []sleeper{{t: &Thread{}, wakeAt: now + 777}}
	k.earliestWake = now + 777
	if h := k.PrivateHorizon(now); h != now+777 {
		t.Fatalf("horizon %d with a sleeper due at %d, want the wake cycle", h, now+777)
	}
	k.sleepers, k.earliestWake = nil, 0

	const tc, floorTPI = 2, 11 // MicroVAX: 2-cycle ticks, BaseTPI 11.9
	for _, left := range []uint64{2, 3, 50} {
		switching(k, left)
		want := (now/tc + 1 + sim.Cycle(left-1)*floorTPI) * tc
		if h := k.PrivateHorizon(now); h != want {
			t.Fatalf("switchLeft %d: horizon %d, want %d", left, h, want)
		}
		if k.PrivateSet(0) != k.procs[0].src.kern {
			t.Fatalf("switchLeft %d: PrivateSet is not the kernel set", left)
		}
	}
	k.PrivateDone(0, 49)
	if k.procs[0].switchLeft != 1 {
		t.Fatalf("switchLeft %d after handing back 49 of 50, want 1", k.procs[0].switchLeft)
	}
	k.procs[0].switchLeft, k.procs[0].src.inKern = 0, false
	idle := k.Stats().IdleInstr
	k.PrivateDone(0, 7)
	if got := k.Stats().IdleInstr - idle; got != 7 {
		t.Fatalf("idle boundaries handed back counted %d idle instructions, want 7", got)
	}
}

// TestPrivateHorizonRefuses: each condition that makes a processor's
// next ticks observable outside it refuses the horizon on its own. Each
// case perturbs the granting rig of TestPrivateHorizonGrants in one way.
func TestPrivateHorizonRefuses(t *testing.T) {
	for _, tc := range []struct {
		name    string
		faults  bool
		perturb func(t *testing.T, k *Kernel)
	}{
		{name: "tracer on", perturb: func(t *testing.T, k *Kernel) { k.m.Trace() }},
		{name: "fault plan installed", faults: true, perturb: func(*testing.T, *Kernel) {}},
		{name: "ready queue non-empty while idle", perturb: func(t *testing.T, k *Kernel) {
			k.Fork(Seq(Compute{Instructions: 10}), ThreadSpec{}, nil)
		}},
		{name: "forced reference pending", perturb: func(t *testing.T, k *Kernel) {
			k.forceWrite(k.procs[0], kernelBase)
		}},
		{name: "working-set line not resident", perturb: func(t *testing.T, k *Kernel) {
			k.procs[0].src.idle = trace.NewWorkingSet(trace.WorkingSetConfig{Base: 0x300000, Bytes: 0x400, SetLines: 8, Seed: 5})
		}},
		{name: "line shared, so a write goes to the bus", perturb: func(t *testing.T, k *Kernel) {
			// Cache 1 reads one of processor 0's idle lines; with both
			// processors' ticks out of the way the fill leaves the line
			// Shared in both caches. The steps after it let the snoop
			// probe age out of the tag-store window.
			m := k.m
			m.CPU(0).Halt()
			c := m.Cache(1)
			c.Submit(core.Access{Addr: k.procs[0].src.idle.Lines()[0]})
			stepUntil(t, m, func() bool { return !c.Busy() })
			m.Run(10)
			m.CPU(0).Resume()
			if m.Cache(0).LineState(k.procs[0].src.idle.Lines()[0]) != core.Shared {
				t.Fatal("the line did not become shared")
			}
		}},
		{name: "processor waiting on its cache", perturb: func(t *testing.T, k *Kernel) {
			// Processor 0 misses on an address no working set uses, then
			// the kernel's source is reinstalled.
			p := k.m.CPU(0)
			p.SetSource(&trace.Fixed{Addr: 0x300000})
			stepUntil(t, k.m, p.Waiting)
			p.SetSource(k.procs[0].src)
		}},
		{name: "snoop probe within the last tick", perturb: func(t *testing.T, k *Kernel) {
			// A probe at an odd cycle lies within the 2-cycle window of
			// the boundary right after it.
			c := k.m.Cache(0)
			stepUntil(t, k.m, func() bool { return k.m.Clock().Now()%2 == 1 })
			c.TagStore().Probe(k.m.Clock().Now())
		}},
		{name: "switchLeft == 1", perturb: func(t *testing.T, k *Kernel) { switching(k, 1) }},
		{name: "drifting working set", perturb: func(t *testing.T, k *Kernel) {
			// The same seed draws the same, resident, lines; only the drift
			// differs.
			k.procs[0].src.idle = trace.NewWorkingSet(trace.WorkingSetConfig{
				Base: kernelBase + 0x2000, Bytes: 0x400, SetLines: 8, Seed: k.cfg.Seed, DriftProb: 0.01,
			})
			if !k.m.Cache(0).HitsLocally(k.procs[0].src.idle.Lines()) {
				t.Fatal("the drifting working set is not resident")
			}
		}},
		{name: "thread running", perturb: func(t *testing.T, k *Kernel) {
			th := k.Fork(Seq(Compute{Instructions: 10}), ThreadSpec{}, nil)
			k.ready = nil
			k.procs[0].cur = th
		}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			k := privateRig(t, tc.faults)
			tc.perturb(t, k)
			now := k.m.Clock().Now()
			if h := k.PrivateHorizon(now); h != now {
				t.Fatalf("horizon %d granted at %d, want a refusal", h, now)
			}
		})
	}
}
