package mbus

import (
	"testing"

	"firefly/internal/sim"
)

// scriptedInjector faults the first len(faults) operations in order,
// then injects nothing.
type scriptedInjector struct {
	faults []FaultKind
	hold   uint64
}

func (s *scriptedInjector) OpFault(op OpKind, addr Addr) (FaultKind, uint64) {
	if len(s.faults) == 0 {
		return FaultNone, 0
	}
	f := s.faults[0]
	s.faults = s.faults[1:]
	if f == FaultTimeout {
		return f, s.hold
	}
	return f, 0
}

func TestParityFaultAbortsWithoutEffect(t *testing.T) {
	b, clock, mem := newTestBus()
	a := &testInitiator{}
	b.Attach(a, nil, nil)
	sn := newTestSnooper(false)
	b.Attach(nil, sn, nil)
	b.SetFaultPolicy(&scriptedInjector{faults: []FaultKind{FaultParity}}, 0, 0)

	a.issue(MWrite, 0x100, 42)
	run(b, clock, 8)

	if len(a.results) != 1 {
		t.Fatalf("results = %d, want 1", len(a.results))
	}
	if a.results[0].Fault != FaultParity {
		t.Fatalf("fault = %v, want parity", a.results[0].Fault)
	}
	// No architectural effect: memory untouched, snoopers never probed.
	if mem.writes != 0 {
		t.Fatalf("faulted write reached memory (%d writes)", mem.writes)
	}
	if len(sn.probes) != 0 || len(sn.commits) != 0 {
		t.Fatalf("faulted op probed snoopers: %d probes, %d commits", len(sn.probes), len(sn.commits))
	}
	st := b.Stats()
	if st.FaultedOps != 1 {
		t.Fatalf("FaultedOps = %d, want 1", st.FaultedOps)
	}
	if st.TotalOps() != 0 {
		t.Fatalf("faulted op counted as completed: %d", st.TotalOps())
	}

	// The retry (no injection left) completes normally.
	a.issue(MWrite, 0x100, 42)
	run(b, clock, 8)
	if len(a.results) != 2 || a.results[1].Fault != FaultNone {
		t.Fatalf("retry did not complete cleanly: %+v", a.results)
	}
	if got := mem.words[Addr(0x100)]; got != 42 {
		t.Fatalf("retried write lost: memory holds %d", got)
	}
}

func TestTimeoutHoldsBus(t *testing.T) {
	const hold = 6
	b, clock, _ := newTestBus()
	a := &testInitiator{}
	b.Attach(a, nil, nil)
	b.SetFaultPolicy(&scriptedInjector{faults: []FaultKind{FaultTimeout}, hold: hold}, 0, 0)

	a.issue(MRead, 0x200, 0)
	run(b, clock, 1) // grant
	faultedCycles := 1
	for len(a.results) == 0 {
		run(b, clock, 1)
		faultedCycles++
		if faultedCycles > 50 {
			t.Fatal("timeout never delivered")
		}
	}
	if a.results[0].Fault != FaultTimeout {
		t.Fatalf("fault = %v, want timeout", a.results[0].Fault)
	}

	// A clean op for comparison: the timeout must have held the bus for
	// exactly the watchdog window beyond the normal operation length.
	a.results = nil
	a.issue(MRead, 0x200, 0)
	run(b, clock, 1)
	cleanCycles := 1
	for len(a.results) == 0 {
		run(b, clock, 1)
		cleanCycles++
	}
	if faultedCycles != cleanCycles+hold {
		t.Fatalf("timeout occupancy = %d cycles, clean = %d, want difference %d",
			faultedCycles, cleanCycles, hold)
	}
}

func TestECCFaultSurfacesOnRead(t *testing.T) {
	clock := &sim.Clock{}
	mem := newFlatMemory()
	mem.words[Addr(0x300)], mem.badReads = 99, 1
	b := New(clock, nil, mem)
	a := &testInitiator{}
	b.Attach(a, nil, nil)

	a.issue(MRead, 0x300, 0)
	run(b, clock, 8)
	if len(a.results) != 1 || a.results[0].Fault != FaultECC {
		t.Fatalf("results = %+v, want one ECC fault", a.results)
	}
	// ECC errors are transient: the retry reads clean data. The operation
	// itself ran normally on the bus, so it IS counted in Ops.
	if b.Stats().Ops[MRead] != 1 {
		t.Fatalf("ECC-faulted read not counted as a completed op")
	}
	a.issue(MRead, 0x300, 0)
	run(b, clock, 8)
	if len(a.results) != 2 || a.results[1].Fault != FaultNone || a.results[1].Data != 99 {
		t.Fatalf("retry = %+v, want clean 99", a.results[1])
	}
}
