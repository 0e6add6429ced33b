package machine

import (
	"fmt"
	"testing"

	"firefly/internal/cpu"
	"firefly/internal/fault"
	"firefly/internal/mbus"
	"firefly/internal/memory"
	"firefly/internal/sim"
	"firefly/internal/trace"
)

// checkCalendar returns an error unless the calendar holds exactly the
// processors that have a due boundary, each once: in wheel slot due&63,
// less than 64 boundaries past the base, or in the far set. occ, farMin
// and next must agree with the slots and the dues.
func checkCalendar(m *Machine) error {
	c := &m.cal
	var wheel [64]uint64
	var far, occ uint64
	farMin, next := sim.Never, sim.Never
	for i, h := range m.hz {
		if h.due == sim.Never {
			continue
		}
		if h.due < c.base {
			return fmt.Errorf("cpu%d is due at boundary %d, before the base %d", i, h.due, c.base)
		}
		bit := uint64(1) << i
		inWheel, inFar := c.wheel[h.due&63]&bit != 0, c.far&bit != 0
		switch {
		case inWheel == inFar:
			return fmt.Errorf("cpu%d is due at boundary %d: in slot %d %v, in far %v; want exactly one",
				i, h.due, h.due&63, inWheel, inFar)
		case inWheel && h.due-c.base >= 64:
			return fmt.Errorf("cpu%d is due at boundary %d, %d past the base, but sits in the wheel",
				i, h.due, h.due-c.base)
		case inWheel:
			wheel[h.due&63] |= bit
			occ |= 1 << (h.due & 63)
		default:
			far |= bit
			farMin = min(farMin, h.due)
		}
		next = min(next, h.due)
	}
	for s := range wheel {
		if c.wheel[s] != wheel[s] {
			return fmt.Errorf("slot %d holds ports %#x, want %#x", s, c.wheel[s], wheel[s])
		}
	}
	switch {
	case c.far != far:
		return fmt.Errorf("far holds ports %#x, want %#x", c.far, far)
	case c.occ != occ:
		return fmt.Errorf("occupancy %#x, want %#x", c.occ, occ)
	case c.farMin != farMin:
		return fmt.Errorf("far minimum %d, want %d", c.farMin, farMin)
	case c.next != next:
		return fmt.Errorf("next due boundary %d, want %d", c.next, next)
	}
	return nil
}

// TestCalendarConsistent checks the calendar at every point RunUntil
// consults its predicate, before each stepped cycle and after each quiet
// window, in Run calls of several lengths. The machines are the Table 1
// load at 10 CPUs; 64 CPUs, so port 63 is the mask's top bit; a BaseTPI
// whose compute stretches reach past the wheel's 64 boundaries, so the
// far set fills and drains; bus timeouts whose hold parks both
// processors for more than 64 boundaries, so a wake lands in the far
// set; and a scheduler that grants private runs, which rearm every
// processor at once.
func TestCalendarConsistent(t *testing.T) {
	table1Load := trace.SyntheticLoad{MissRate: 0.2, ShareFraction: 0.1, SharedReadFraction: 0.05}
	synthetic := func(cfg Config, load trace.SyntheticLoad) func() *Machine {
		return func() *Machine {
			m := New(cfg)
			m.AttachSyntheticLoad(load)
			return m
		}
	}
	// 64 private regions of 512 KB from 1 MB up reach past the MicroVAX's
	// 16 MB of storage. Fixed priority would starve the high ports of the
	// saturated bus.
	wide := MicroVAXConfig(64)
	wide.ModuleBytes = memory.CVAXModuleBytes
	wide.Arbiter = mbus.NewRoundRobin()
	farSpan := MicroVAXConfig(4)
	farSpan.Variant.BaseTPI = 150
	longHold := MicroVAXConfig(2)
	longHold.Faults = &fault.Config{BusTimeoutRate: 0.05, TimeoutHoldCycles: 200, BackoffCycles: 8}
	for _, tc := range []struct {
		name   string
		cycles uint64
		build  func() *Machine
		// wantFar: some check point must find a processor in the far set.
		wantFar bool
	}{
		{"table1-10cpu", 60_000, synthetic(MicroVAXConfig(10), table1Load), false},
		{"64cpu", 30_000, synthetic(wide, table1Load), false},
		{"far-span", 200_000, synthetic(farSpan, table1Load), true},
		{"wake-far", 100_000, synthetic(longHold, trace.SyntheticLoad{MissRate: 0.8, ShareFraction: 0.1, SharedReadFraction: 0.05}), true},
		{"private-runs", 100_000, func() *Machine { m, _ := newStubMachine(cpu.MicroVAX78032()); return m }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.build()
			var err error
			checks, farChecks := 0, 0
			check := func() bool {
				checks++
				if m.cal.far != 0 {
					farChecks++
				}
				err = checkCalendar(m)
				return err != nil
			}
			for i, done := 0, uint64(0); done < tc.cycles; i++ {
				n := min([]uint64{1, 3, 7, 1013}[i%4], tc.cycles-done)
				if m.RunUntil(check, n) {
					t.Fatalf("cycle %d, check point %d: %v", m.Clock().Now(), checks, err)
				}
				done += n
			}
			t.Logf("%d check points, %d with a far due", checks, farChecks)
			if tc.wantFar && farChecks == 0 {
				t.Error("no check point found a processor in the far set")
			}
			last := len(m.Processors()) - 1
			if m.CPU(last).Stats().Instructions == 0 {
				t.Errorf("cpu%d retired no instruction", last)
			}
		})
	}
}
