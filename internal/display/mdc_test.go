package display

import (
	"testing"

	"firefly/internal/machine"
)

// newMDCBench builds a 1-CPU machine (halted) with an MDC attached.
func newMDCBench(t testing.TB, cfg Config) (*machine.Machine, *MDC) {
	t.Helper()
	m := machine.New(machine.MicroVAXConfig(1))
	m.CPU(0).Halt()
	mdc := New(m.Clock(), m.Bus(), m.Memory(), cfg)
	m.AddDevice(mdc)
	return m, mdc
}

// runUntil runs m until the MDC's status word counts want commands.
func runUntil(t testing.TB, m *machine.Machine, mdc *MDC, want uint32, budget uint64) {
	t.Helper()
	if !m.RunUntil(func() bool { return m.Memory().Peek(StatusAddr) >= want }, budget) {
		t.Fatalf("MDC completed %d commands, want %d", mdc.Completed(), want)
	}
}

func TestMDCFillCommand(t *testing.T) {
	m, mdc := newMDCBench(t, Config{})
	mdc.Submit(CmdFill{R: Rect{X: 0, Y: 0, W: 64, H: 64}, Op: OpSet})
	runUntil(t, m, mdc, 1, 1_000_000)
	if got := mdc.Frame().PopCount(); got != 64*64 {
		t.Fatalf("frame popcount = %d", got)
	}
	// Completion status word written to memory.
	if m.Memory().Peek(0x7004) != 1 {
		t.Fatal("status word not written")
	}
	if mdc.Stats().PixelsPainted.Value() != 64*64 {
		t.Fatalf("pixels painted = %d", mdc.Stats().PixelsPainted.Value())
	}
}

func TestMDCPaintRate(t *testing.T) {
	// "The MDC can paint a large area of the screen at 16 megapixels per
	// second": a full-visible-screen fill (786K pixels) must take about
	// 49 ms of simulated time.
	m, mdc := newMDCBench(t, Config{})
	mdc.Submit(CmdFill{R: Rect{X: 0, Y: 0, W: FrameWidth, H: VisibleHeight}, Op: OpSet})
	start := m.Clock().Now()
	runUntil(t, m, mdc, 1, 10_000_000)
	elapsed := float64(m.Clock().Now()-start) * 100e-9
	rate := float64(FrameWidth*VisibleHeight) / elapsed / 1e6
	if rate < 14 || rate > 17 {
		t.Fatalf("paint rate = %.1f Mpixel/s, want ~16", rate)
	}
}

func TestMDCCharRate(t *testing.T) {
	// "can paint approximately 20,000 10-point characters per second":
	// 200 characters must take about 10 ms.
	m, mdc := newMDCBench(t, Config{})
	line := make([]byte, 100)
	for i := range line {
		line[i] = byte('a' + i%26)
	}
	mdc.Submit(CmdPaintString{S: string(line), X: 0, Y: 0, Op: OpOr})
	mdc.Submit(CmdPaintString{S: string(line), X: 0, Y: 16, Op: OpOr})
	start := m.Clock().Now()
	runUntil(t, m, mdc, 2, 10_000_000)
	elapsed := float64(m.Clock().Now()-start) * 100e-9
	rate := 200 / elapsed
	if rate < 15_000 || rate > 22_000 {
		t.Fatalf("char rate = %.0f chars/s, want ~20000", rate)
	}
	if mdc.Stats().CharsPainted.Value() != 200 {
		t.Fatalf("chars painted = %d", mdc.Stats().CharsPainted.Value())
	}
}

func TestMDCBltFromMemory(t *testing.T) {
	m, mdc := newMDCBench(t, Config{})
	// A 32x2 pattern at 0x100000: row 0 all ones, row 1 alternating.
	m.Memory().Poke(0x100000, 0xffffffff)
	m.Memory().Poke(0x100004, 0xaaaaaaaa)
	mdc.Submit(CmdBltFromMemory{R: Rect{X: 8, Y: 8, W: 32, H: 2}, Addr: 0x100000})
	runUntil(t, m, mdc, 1, 1_000_000)
	fb := mdc.Frame()
	for x := 0; x < 32; x++ {
		if fb.Get(8+x, 8) != 1 {
			t.Fatalf("row 0 pixel %d missing", x)
		}
		want := 1 - x%2
		if fb.Get(8+x, 9) != want {
			t.Fatalf("row 1 pixel %d = %d", x, fb.Get(8+x, 9))
		}
	}
}

func TestMDCBltToMemory(t *testing.T) {
	m, mdc := newMDCBench(t, Config{})
	mdc.Submit(CmdFill{R: Rect{X: 0, Y: 0, W: 16, H: 1}, Op: OpSet})
	mdc.Submit(CmdBltToMemory{R: Rect{X: 0, Y: 0, W: 32, H: 1}, Addr: 0x200000})
	runUntil(t, m, mdc, 2, 2_000_000)
	if got := m.Memory().Peek(0x200000); got != 0xffff0000 {
		t.Fatalf("stored word = %#x, want 0xffff0000", got)
	}
}

func TestMDCQueuePollingTraffic(t *testing.T) {
	m, mdc := newMDCBench(t, Config{PollCycles: 200})
	m.Run(100_000)
	st := mdc.Stats()
	if st.PollReads.Value() < 100 {
		t.Fatalf("poll reads = %d, want hundreds over 10 ms", st.PollReads.Value())
	}
	if st.Commands.Value() != 0 {
		t.Fatal("phantom commands executed")
	}
}

func TestMDCInputDeposit(t *testing.T) {
	m, mdc := newMDCBench(t, Config{})
	mdc.SetMouse(123, 456)
	mdc.KeyDown(5)
	mdc.KeyDown(64)
	// One deposit per 1/60 s: run 25 ms.
	m.Run(250_000)
	if mdc.Stats().Deposits.Value() == 0 {
		t.Fatal("no deposits in 25 ms")
	}
	if got := m.Memory().Peek(0x7100); got != 123 {
		t.Fatalf("mouse X = %d", got)
	}
	if got := m.Memory().Peek(0x7104); got != 456 {
		t.Fatalf("mouse Y = %d", got)
	}
	if got := m.Memory().Peek(0x7108); got != 1<<5 {
		t.Fatalf("keys[0] = %#x", got)
	}
	if got := m.Memory().Peek(0x7110); got != 1 {
		t.Fatalf("keys[2] = %#x", got)
	}
	mdc.KeyUp(5)
	m.Run(200_000)
	if got := m.Memory().Peek(0x7108); got != 0 {
		t.Fatalf("released key still deposited: %#x", got)
	}
}

func TestMDCDepositRate(t *testing.T) {
	m, mdc := newMDCBench(t, Config{})
	m.Run(10_000_000) // 1 second
	got := mdc.Stats().Deposits.Value()
	if got < 58 || got > 62 {
		t.Fatalf("deposits in 1 s = %d, want ~60", got)
	}
}

func TestMDCMultipleCommandsInOrder(t *testing.T) {
	m, mdc := newMDCBench(t, Config{})
	mdc.Submit(CmdFill{R: Rect{0, 0, 16, 16}, Op: OpSet})
	mdc.Submit(CmdFill{R: Rect{0, 0, 16, 16}, Op: OpClear})
	mdc.Submit(CmdFill{R: Rect{0, 0, 8, 8}, Op: OpSet})
	runUntil(t, m, mdc, 3, 2_000_000)
	if got := mdc.Frame().PopCount(); got != 64 {
		t.Fatalf("final popcount = %d, want 64", got)
	}
	if mdc.Pending() != 0 {
		t.Fatal("commands left pending")
	}
}

func TestMDCSecondBatchAfterDrain(t *testing.T) {
	// Regression: the doorbell carries the cumulative submission count, so
	// a batch submitted after the queue has fully drained must still be
	// noticed and executed to completion.
	m, mdc := newMDCBench(t, Config{})
	mdc.Submit(CmdFill{R: Rect{0, 0, 8, 8}, Op: OpSet})
	runUntil(t, m, mdc, 1, 1_000_000)
	for i := 0; i < 5; i++ {
		mdc.Submit(CmdFill{R: Rect{X: 16 * i, Y: 32, W: 8, H: 8}, Op: OpSet})
	}
	runUntil(t, m, mdc, 6, 1_000_000)
	if mdc.Pending() != 0 {
		t.Fatalf("%d commands starved in the second batch", mdc.Pending())
	}
}

func TestMDCSelfBlt(t *testing.T) {
	m, mdc := newMDCBench(t, Config{})
	mdc.Submit(CmdFill{R: Rect{0, 0, 8, 8}, Op: OpSet})
	mdc.Submit(CmdBlt{R: Rect{X: 100, Y: 100, W: 8, H: 8}, SX: 0, SY: 0, Op: OpSrc})
	runUntil(t, m, mdc, 2, 2_000_000)
	if mdc.Frame().Get(104, 104) != 1 {
		t.Fatal("screen-to-screen blit missing")
	}
}

func TestMDCKeyCodeValidation(t *testing.T) {
	_, mdc := newMDCBench(t, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("key code 128 accepted")
		}
	}()
	mdc.KeyDown(128)
}

func TestMDCNilCommandPanics(t *testing.T) {
	_, mdc := newMDCBench(t, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("nil command accepted")
		}
	}()
	mdc.Submit(nil)
}
