package topaz

import (
	"testing"

	"firefly/internal/machine"
	"firefly/internal/mbus"
	"firefly/internal/obs"
)

// periodicTagFault faults every Nth tag lookup. It must not fault every
// lookup: a clean hit that faults is invalidated before the protocol can
// dirty the line, so a permanently faulting tag store can never produce
// the dirty-line hit that latches a machine check. Spaced faults let
// write hits create dirty lines in between draws.
type periodicTagFault struct{ period, n int }

func (p *periodicTagFault) TagFault(mbus.Addr) bool {
	p.n++
	return p.n%p.period == 0
}

// offlineLog keeps every KindCPUOffline event regardless of run length
// (a bounded ring would scroll the early offline out of the capture).
type offlineLog struct{ events []obs.Event }

func (l *offlineLog) Observe(e obs.Event) {
	if e.Kind == obs.KindCPUOffline {
		l.events = append(l.events, e)
	}
}

// TestMachineCheckOfflinesProcessor is the Topaz-level recovery path: a
// processor whose cache latches an uncorrectable fault is taken out of
// service, its thread migrates to the survivors, and the workload still
// completes.
func TestMachineCheckOfflinesProcessor(t *testing.T) {
	m := machine.New(machine.MicroVAXConfig(2))
	log := &offlineLog{}
	m.Trace(log)
	// Only processor 1's tag store is failing.
	m.Cache(1).SetTagFaultInjector(&periodicTagFault{period: 25})
	k := NewKernel(m, Config{})
	k.Fork(Seq(Compute{100_000}), ThreadSpec{Name: "a"}, nil)
	k.Fork(Seq(Compute{100_000}), ThreadSpec{Name: "b"}, nil)

	if !k.RunUntilDone(100_000_000) {
		t.Fatalf("workload did not survive processor loss: stats=%+v offlines=%d",
			k.Stats(), k.Stats().Offlines)
	}
	if k.Stats().Offlines != 1 {
		t.Fatalf("offlines = %d, want 1", k.Stats().Offlines)
	}
	if !k.IsOffline(1) || k.IsOffline(0) {
		t.Fatalf("wrong processor offlined: p0=%v p1=%v", k.IsOffline(0), k.IsOffline(1))
	}
	if !m.CPU(1).Halted() {
		t.Fatal("offlined CPU still running")
	}
	if m.Cache(1).MachineCheck() {
		t.Fatal("machine check not acknowledged by the offline path")
	}
	if m.Cache(1).Stats().MachineChecks == 0 {
		t.Fatal("no machine check counted on the failing cache")
	}
	if len(log.events) != 1 {
		t.Fatalf("offline events = %d, want 1", len(log.events))
	}
	if log.events[0].Unit != 1 {
		t.Fatalf("offline event for unit %d, want 1", log.events[0].Unit)
	}
	if got := m.Registry().MustValue("kernel.offlines"); got != 1 {
		t.Fatalf("kernel.offlines = %d, want 1", got)
	}
}

// TestOfflineReleasesCurrentThread: the thread running on the dying
// processor must not be lost — it re-enters the ready queue.
func TestOfflineReleasesCurrentThread(t *testing.T) {
	m := machine.New(machine.MicroVAXConfig(2))
	k := NewKernel(m, Config{})
	k.Fork(Seq(Compute{50_000}), ThreadSpec{Name: "a"}, nil)
	k.Fork(Seq(Compute{50_000}), ThreadSpec{Name: "b"}, nil)
	// Let both threads dispatch, then kill processor 1 directly.
	m.Run(5_000)
	k.Offline(1)
	k.Offline(1) // repeated offline is a no-op
	if k.Stats().Offlines != 1 {
		t.Fatalf("offlines = %d, want 1", k.Stats().Offlines)
	}
	if !k.RunUntilDone(100_000_000) {
		t.Fatal("threads lost after offline")
	}
	for _, th := range k.Threads() {
		if th.State() != Done {
			t.Fatalf("thread %q stuck in %v", th.spec.Name, th.State())
		}
	}
}
