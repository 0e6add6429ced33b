// Display: drive the MDC like the Trestle window manager would — fills,
// screen-to-screen scrolls, text through the font cache, a cursor drawn
// with XOR — then render the frame buffer region as ASCII art and report
// the controller's measured throughput.
package main

import (
	"fmt"
	"log"
	"strings"

	"firefly"
	"firefly/internal/display"
)

func main() {
	m := firefly.NewMicroVAX(1)
	m.CPU(0).Halt() // the demo drives the controller directly
	mdc := display.New(m.Clock(), m.Bus(), m.Memory(), display.Config{})
	m.AddDevice(mdc)

	run := func(want uint32) {
		if !m.RunUntil(func() bool { return m.Memory().Peek(display.StatusAddr) >= want }, 100_000_000) {
			log.Fatalf("display: %d commands not done within the budget", want)
		}
	}

	// A window with a title bar, like Trestle would paint.
	mdc.Submit(display.CmdFill{R: display.Rect{X: 4, Y: 4, W: 120, H: 40}, Op: display.OpSet})
	mdc.Submit(display.CmdFill{R: display.Rect{X: 6, Y: 12, W: 116, H: 30}, Op: display.OpClear})
	mdc.Submit(display.CmdPaintString{S: "Topaz", X: 8, Y: 16, Op: display.OpOr})
	// Scroll the window body left by 8 pixels (overlapping self-blit).
	mdc.Submit(display.CmdBlt{R: display.Rect{X: 6, Y: 12, W: 108, H: 30}, SX: 14, SY: 12, Op: display.OpSrc})
	// An XOR cursor: drawn and (idempotently) removable.
	mdc.Submit(display.CmdFill{R: display.Rect{X: 30, Y: 20, W: 6, H: 10}, Op: display.OpInvert})
	run(5)

	fmt.Println("Frame buffer (top-left 128x48, 2x2 pixel blocks):")
	fb := mdc.Frame()
	for y := 0; y < 48; y += 2 {
		var row strings.Builder
		for x := 0; x < 128; x += 2 {
			on := fb.Get(x, y) + fb.Get(x+1, y) + fb.Get(x, y+1) + fb.Get(x+1, y+1)
			switch {
			case on >= 3:
				row.WriteByte('#')
			case on >= 1:
				row.WriteByte('+')
			default:
				row.WriteByte(' ')
			}
		}
		fmt.Println(row.String())
	}

	// Throughput, measured the way §5 quotes it.
	start := m.Clock().Now()
	mdc.Submit(display.CmdFill{
		R:  display.Rect{X: 0, Y: 0, W: display.FrameWidth, H: display.VisibleHeight},
		Op: display.OpClear,
	})
	run(6)
	fillSecs := float64(m.Clock().Now()-start) * 100e-9
	fmt.Printf("\nFull-screen fill: %.1f Mpixel/s (paper: 16)\n",
		float64(display.FrameWidth*display.VisibleHeight)/fillSecs/1e6)

	line := strings.Repeat("abcdefghij", 10)
	start = m.Clock().Now()
	for i := 0; i < 10; i++ {
		mdc.Submit(display.CmdPaintString{S: line, X: 0, Y: i * 13, Op: display.OpOr})
	}
	run(16)
	textSecs := float64(m.Clock().Now()-start) * 100e-9
	fmt.Printf("Font-cache text:  %.0f chars/s (paper: ~20,000)\n", 1000/textSecs)

	st := mdc.Stats()
	fmt.Printf("\nController activity: %d commands, %d pixels, %d queue polls, %d input deposits\n",
		st.Commands.Value(), st.PixelsPainted.Value(), st.PollReads.Value(), st.Deposits.Value())
}
