package display

import (
	"testing"

	"firefly/internal/fault"
	"firefly/internal/machine"
	"firefly/internal/mbus"
)

// TestMDCBusFaults loads 20 rectangles from memory over a bus that
// faults 2% of its operations. No faulted word may reach the frame
// buffer or the word count. With the fault plan's retry policy every
// command paints its whole rectangle; with no retries, a faulted blit
// word aborts its command, which then stops at that word, and the
// abort is counted.
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
	run := func(retry bool) (*MDC, []int) {
		cfg := machine.MicroVAXConfig(2)
		cfg.Faults = &fault.Config{BusParityRate: 0.02}
		m := machine.New(cfg)
		m.CPU(0).Halt()
		m.CPU(1).Halt()
		mdc := New(m.Clock(), m.Bus(), m.Memory(), Config{})
		if retry {
			mdc.SetFaultPolicy(m.Faults().MaxRetries(), m.Faults().BackoffCycles())
		}
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
			t.Fatalf("retry %v: %d of %d commands completed", retry, mdc.Completed(), cmds)
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
					t.Fatalf("retry %v: command %d word %d reads %#x, want %#x or a blank after an abort",
						retry, c, k, got, memWord(c, k))
				}
			}
			if painted[c] < 0 {
				painted[c] = rowWords * rows
			}
		}
		st := mdc.Stats()
		if st.MemoryWords.Value() != words {
			t.Errorf("retry %v: %d blit words counted, %d painted", retry, st.MemoryWords.Value(), words)
		}
		if st.BusFaults.Value() == 0 {
			t.Fatalf("retry %v: no MDC operation faulted; the test covers nothing", retry)
		}
		return mdc, painted
	}

	mdc, painted := run(true)
	for c, p := range painted {
		if p != rowWords*rows {
			t.Errorf("with retries, command %d painted %d of %d words", c, p, rowWords*rows)
		}
	}
	if st := mdc.Stats(); st.Retries.Value() != st.BusFaults.Value() || st.Errors.Value() != 0 {
		t.Errorf("with retries: %d faults, %d retries, %d errors; want every fault retried, no errors",
			st.BusFaults.Value(), st.Retries.Value(), st.Errors.Value())
	}

	mdc, painted = run(false)
	aborted := 0
	for _, p := range painted {
		if p < rowWords*rows {
			aborted++
		}
	}
	st := mdc.Stats()
	if aborted == 0 || st.Retries.Value() != 0 || st.Errors.Value() != st.BusFaults.Value() || uint64(aborted) > st.Errors.Value() {
		t.Errorf("without retries: %d commands aborted, %d faults, %d retries, %d errors; want aborts, every fault an error",
			aborted, st.BusFaults.Value(), st.Retries.Value(), st.Errors.Value())
	}
}
