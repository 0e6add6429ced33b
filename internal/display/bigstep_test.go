package display

import (
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"firefly/internal/machine"
	"firefly/internal/mbus"
	"firefly/internal/obs"
)

// mdcImage is everything observable about an MDC machine: the clock,
// the controller and bus counters, a hash of the frame buffer, the
// status, deposit, and blit-target words the controller writes to
// memory, and a hash of the cycle-stamped bus event stream (so a
// controller action moved by even one cycle shows up).
func mdcImage(m *machine.Machine, mdc *MDC, events hash.Hash64) string {
	h := fnv.New64a()
	for _, w := range mdc.Frame().Words() {
		fmt.Fprintf(h, "%08x", w)
	}
	var mem []uint32
	for _, a := range []mbus.Addr{0x7004, 0x7100, 0x7104, 0x7108, 0x710c, 0x7110, 0x7114, 0x200000, 0x200004, 0x200008} {
		mem = append(mem, m.Memory().Peek(a))
	}
	return fmt.Sprintf("clock=%d completed=%d stats=%+v bus=%+v frame=%x mem=%x events=%x",
		m.Clock().Now(), mdc.Completed(), mdc.Stats(), m.Bus().Stats(), h.Sum64(), mem, events.Sum64())
}

// TestMDCBigStepDifferential proves the display controller's NextEvent
// sound: a halted-CPU machine driven by the MDC alone reaches the same
// state whether Run big-steps the idle stretches or every cycle is
// stepped one at a time. The script covers every command kind, memory
// blits in both directions, and several 60 Hz input deposits.
func TestMDCBigStepDifferential(t *testing.T) {
	type phase struct {
		setup  func(*MDC)
		cycles uint64
	}
	script := []phase{
		{func(d *MDC) {
			d.SetMouse(17, 42)
			d.KeyDown(5)
			d.Submit(CmdFill{R: Rect{X: 0, Y: 0, W: 256, H: 128}, Op: OpSet})
			d.Submit(CmdBlt{R: Rect{X: 300, Y: 10, W: 100, H: 60}, SX: 10, SY: 20, Op: OpXor})
			d.Submit(CmdPaintString{S: "Firefly big-step", X: 20, Y: 200, Op: OpOr})
		}, 120_000},
		{func(d *MDC) {
			d.Submit(CmdBltFromMemory{R: Rect{X: 500, Y: 300, W: 70, H: 3}, Addr: 0x100000})
			d.Submit(CmdBltToMemory{R: Rect{X: 0, Y: 0, W: 80, H: 1}, Addr: 0x200000})
		}, 100_000},
		{func(d *MDC) {
			d.SetMouse(-3, 700)
			d.KeyUp(5)
			d.KeyDown(97)
			d.Submit(CmdFill{R: Rect{X: 64, Y: 64, W: 128, H: 128}, Op: OpInvert})
		}, 250_000},
		{func(*MDC) {}, 200_000}, // idle: polls and a deposit only
	}
	run := func(bigStep bool) (*machine.Machine, *MDC, string) {
		m := machine.New(machine.MicroVAXConfig(1))
		m.CPU(0).Halt()
		events := fnv.New64a()
		m.Trace(obs.ObserverFunc(func(e obs.Event) { fmt.Fprintf(events, "%+v\n", e) }))
		mdc := New(m.Clock(), m.Bus(), m.Memory(), Config{})
		m.AddDevice(mdc)
		for i := 0; i < 8; i++ {
			m.Memory().Poke(mbus.Addr(0x100000+4*i), 0x9e3779b9*uint32(i+1))
		}
		for _, ph := range script {
			ph.setup(mdc)
			if bigStep {
				m.Run(ph.cycles)
				continue
			}
			for i := uint64(0); i < ph.cycles; i++ {
				m.Step()
			}
		}
		if mdc.Completed() != 6 {
			t.Fatalf("script completed %d commands, want 6", mdc.Completed())
		}
		if d := mdc.Stats().Deposits.Value(); d < 2 {
			t.Fatalf("script covered %d input deposits, want at least 2", d)
		}
		return m, mdc, mdcImage(m, mdc, events)
	}
	bm, bmdc, got := run(true)
	_, _, want := run(false)
	if got != want {
		t.Fatalf("big-step diverged from per-cycle stepping\n--- Run ---\n%s\n--- Step ---\n%s", got, want)
	}
	// The idle controller must actually open a skip window, or Run never
	// exercised the big-step path this test claims to cover.
	now := bm.Clock().Now()
	if ev := min(bm.Bus().NextEvent(now), bmdc.NextEvent(now)); ev <= now+1 {
		t.Fatalf("idle MDC machine's bus and controller report next event %d at cycle %d: no skip window", ev, now)
	}
}

var _ machine.Device = (*MDC)(nil)
