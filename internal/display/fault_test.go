package display

import (
	"testing"

	"firefly/internal/fault"
	"firefly/internal/machine"
	"firefly/internal/mbus"
)

// TestMDCBusFaults loads 20 rectangles from memory over a faulting bus,
// with no fault policy set on the controller: the bus retries its faulted
// operations. No faulted word may reach the frame buffer or the word
// count. When 2% of operations fault, the retries carry every command
// through its whole rectangle. When every blit read faults (a rate-1
// plan over the source rectangles), each command's first word is
// abandoned once the bus has spent its retry budget, so every command
// aborts at that word, paints nothing, and the abort is counted.
func TestMDCBusFaults(t *testing.T) {
	const (
		cmds     = 20
		rowWords = 4 // 128-pixel rows
		rows     = 8
		base     = mbus.Addr(0x100000)
	)
	// Every memory word is nonzero, so a word the frame buffer shows as
	// zero was never painted.
	memWord := func(cmd, k int) uint32 { return 0x9e3779b9*uint32(cmd*rowWords*rows+k+1) | 1 }
	type outcome struct {
		st              Stats
		painted         []int
		faults, retries uint64
		maxRetries      int
	}
	run := func(name string, plan fault.Config) outcome {
		cfg := machine.MicroVAXConfig(2)
		cfg.Faults = &plan
		m := machine.New(cfg)
		m.CPU(0).Halt()
		m.CPU(1).Halt()
		mdc := New(m.Clock(), m.Bus(), m.Memory(), Config{})
		m.AddDevice(mdc)
		for c := 0; c < cmds; c++ {
			for k := 0; k < rowWords*rows; k++ {
				m.Memory().Poke(base+mbus.Addr(4*(c*rowWords*rows+k)), memWord(c, k))
			}
			mdc.Submit(CmdBltFromMemory{
				R:    Rect{X: 0, Y: c * rows, W: 32 * rowWords, H: rows},
				Addr: base + mbus.Addr(4*c*rowWords*rows),
			})
		}
		m.Run(2_000_000)
		if mdc.Completed() != cmds {
			t.Fatalf("%s: %d of %d commands completed", name, mdc.Completed(), cmds)
		}
		// painted[c] is the number of leading words of command c the frame
		// shows; every word after them must be blank.
		painted := make([]int, cmds)
		var words uint64
		for c := 0; c < cmds; c++ {
			painted[c] = -1
			for k := 0; k < rowWords*rows; k++ {
				var got uint32
				for bit := 0; bit < 32; bit++ {
					got = got<<1 | uint32(mdc.Frame().Get(32*(k%rowWords)+bit, c*rows+k/rowWords))
				}
				switch {
				case got == memWord(c, k) && painted[c] < 0:
					words++
				case got == 0 && painted[c] < 0:
					painted[c] = k
				case got != 0:
					t.Fatalf("%s: command %d word %d reads %#x, want %#x or a blank after an abort",
						name, c, k, got, memWord(c, k))
				}
			}
			if painted[c] < 0 {
				painted[c] = rowWords * rows
			}
		}
		st := mdc.Stats()
		if st.MemoryWords.Value() != words {
			t.Errorf("%s: %d blit words counted, %d painted", name, st.MemoryWords.Value(), words)
		}
		// The controller attaches after the two caches.
		p := m.Bus().PortStats(len(m.Caches()))
		faults, retries := p.Faults, p.Retries
		if faults == 0 {
			t.Fatalf("%s: no MDC operation faulted; the test covers nothing", name)
		}
		return outcome{st, painted, faults, retries, m.Faults().Config().MaxRetries}
	}

	o := run("2% parity", fault.Config{BusParityRate: 0.02})
	for c, p := range o.painted {
		if p != rowWords*rows {
			t.Errorf("with retries, command %d painted %d of %d words", c, p, rowWords*rows)
		}
	}
	if o.retries != o.faults || o.st.Errors.Value() != 0 {
		t.Errorf("2%% parity: %d faults, %d retries, %d errors; want every fault retried, no errors",
			o.faults, o.retries, o.st.Errors.Value())
	}

	o = run("every blit read", fault.Config{
		BusParityRate: 1, AddrMin: base, AddrMax: base + mbus.Addr(4*cmds*rowWords*rows-1),
	})
	for c, p := range o.painted {
		if p != 0 {
			t.Errorf("every blit read faulted, yet command %d painted %d words", c, p)
		}
	}
	attempts := uint64(o.maxRetries + 1)
	if o.st.Errors.Value() != cmds || o.faults != cmds*attempts || o.retries != cmds*(attempts-1) {
		t.Errorf("every blit read: %d errors, %d faults, %d retries; want %d, %d, %d (each command abandoned at its first word)",
			o.st.Errors.Value(), o.faults, o.retries, cmds, cmds*attempts, cmds*(attempts-1))
	}
}
