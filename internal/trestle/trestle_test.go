package trestle

import (
	"strings"
	"testing"

	"firefly/internal/display"
	"firefly/internal/machine"
)

// bench wires a WM to a real MDC on a machine with a halted CPU.
type bench struct {
	m   *machine.Machine
	mdc *display.MDC
	wm  *WM
}

func newBench(t testing.TB) *bench {
	t.Helper()
	m := machine.New(machine.MicroVAXConfig(1))
	m.CPU(0).Halt()
	mdc := display.New(m.Clock(), m.Bus(), m.Memory(), display.Config{})
	m.AddDevice(mdc)
	return &bench{m: m, mdc: mdc, wm: New(mdc)}
}

// drain runs the machine until the MDC has written the status of every
// submitted command.
func (b *bench) drain(t testing.TB) {
	t.Helper()
	mem := b.m.Memory()
	if !b.m.RunUntil(func() bool { return mem.Peek(display.StatusAddr) == mem.Peek(display.DoorbellAddr) }, 1_000_000_000) {
		t.Fatalf("MDC did not drain: %d pending", b.mdc.Pending())
	}
}

func TestCreateDrawsWindow(t *testing.T) {
	b := newBench(t)
	w := b.wm.Create("edit", display.Rect{X: 100, Y: 50, W: 200, H: 100})
	b.drain(t)
	fb := b.mdc.Frame()
	// Border pixels set; interior clear.
	if fb.Get(100, 50) != 1 || fb.Get(299, 149) != 1 {
		t.Fatal("border not painted")
	}
	if fb.Get(150, 120) != 0 {
		t.Fatal("interior not cleared")
	}
	// Focused title bar is solid.
	if fb.Get(150, 55) != 1 {
		t.Fatal("focused title bar not filled")
	}
	if !w.Focused() || b.wm.Focus() != w {
		t.Fatal("new window not focused")
	}
}

func TestOcclusionAndWindowAt(t *testing.T) {
	b := newBench(t)
	bottom := b.wm.Create("bottom", display.Rect{X: 50, Y: 50, W: 200, H: 150})
	top := b.wm.Create("top", display.Rect{X: 150, Y: 100, W: 200, H: 150})
	if got := b.wm.WindowAt(200, 120); got != top {
		t.Fatalf("overlap owned by %v", got.Title())
	}
	if got := b.wm.WindowAt(60, 60); got != bottom {
		t.Fatal("bottom window lost its exclusive area")
	}
	if b.wm.WindowAt(900, 700) != nil {
		t.Fatal("desktop click hit a window")
	}
	b.drain(t)
	// In the overlap region, the top window's interior (clear) must win
	// over the bottom window's anything.
	fb := b.mdc.Frame()
	if fb.Get(155, 130) != 0 { // inside top's interior, below its title bar
		t.Fatal("painter's order broken in overlap")
	}
}

func TestRaiseChangesStacking(t *testing.T) {
	b := newBench(t)
	w1 := b.wm.Create("one", display.Rect{X: 50, Y: 50, W: 200, H: 150})
	w2 := b.wm.Create("two", display.Rect{X: 150, Y: 100, W: 200, H: 150})
	if b.wm.WindowAt(200, 120) != w2 {
		t.Fatal("precondition: two on top")
	}
	b.wm.Raise(w1)
	if b.wm.WindowAt(200, 120) != w1 {
		t.Fatal("raise did not restack")
	}
	if !w1.Focused() || w2.Focused() {
		t.Fatal("focus did not follow raise")
	}
}

func TestRouteMouseClickRaises(t *testing.T) {
	b := newBench(t)
	w1 := b.wm.Create("one", display.Rect{X: 50, Y: 50, W: 200, H: 150})
	b.wm.Create("two", display.Rect{X: 150, Y: 100, W: 200, H: 150})
	got := b.wm.RouteMouseClick(60, 60) // w1's exclusive area
	if got != w1 {
		t.Fatal("click routed to wrong window")
	}
	if b.wm.WindowAt(200, 120) != w1 {
		t.Fatal("click did not raise")
	}
	if b.wm.RouteMouseClick(1000, 760) != nil {
		t.Fatal("desktop click returned a window")
	}
}

func TestDestroyRepaintsUnderneath(t *testing.T) {
	b := newBench(t)
	bottom := b.wm.Create("bottom", display.Rect{X: 50, Y: 50, W: 200, H: 150})
	top := b.wm.Create("top", display.Rect{X: 60, Y: 60, W: 100, H: 80})
	b.drain(t)
	b.wm.Destroy(top)
	b.drain(t)
	fb := b.mdc.Frame()
	// The area top covered now shows bottom's interior (clear) and
	// bottom regains focus.
	if fb.Get(100, 120) != 0 {
		t.Fatal("destroyed window left pixels")
	}
	if b.wm.Focus() != bottom || !bottom.Focused() {
		t.Fatal("focus did not return to the survivor")
	}
	if len(b.wm.Windows()) != 1 {
		t.Fatal("window list wrong after destroy")
	}
}

func TestMoveRepaintsOldArea(t *testing.T) {
	b := newBench(t)
	w := b.wm.Create("w", display.Rect{X: 50, Y: 50, W: 100, H: 80})
	b.drain(t)
	b.wm.Move(w, 400, 300)
	b.drain(t)
	fb := b.mdc.Frame()
	if fb.Get(50, 50) != 0 {
		t.Fatal("old position not cleared")
	}
	if fb.Get(400, 300) != 1 {
		t.Fatal("new position not painted")
	}
	if w.Bounds().X != 400 || w.Bounds().Y != 300 {
		t.Fatalf("bounds = %+v", w.Bounds())
	}
}

func TestClamping(t *testing.T) {
	b := newBench(t)
	w := b.wm.Create("w", display.Rect{X: -50, Y: -50, W: 10, H: 5})
	r := w.Bounds()
	if r.X < 0 || r.Y < 0 || r.W < MinW || r.H < MinH {
		t.Fatalf("clamping failed: %+v", r)
	}
	b.wm.Move(w, display.FrameWidth+100, display.VisibleHeight+100)
	r = w.Bounds()
	if r.X+r.W > display.FrameWidth || r.Y+r.H > display.VisibleHeight {
		t.Fatalf("window pushed off screen: %+v", r)
	}
}

func TestSetTextPaintsBody(t *testing.T) {
	b := newBench(t)
	w := b.wm.Create("sh", display.Rect{X: 100, Y: 100, W: 300, H: 200})
	b.drain(t)
	before := b.mdc.Frame().PopCount()
	b.wm.SetText(w, []string{"ls -l", "total 42"})
	b.drain(t)
	if b.mdc.Frame().PopCount() <= before {
		t.Fatal("body text painted nothing")
	}
}

func TestTileNonOverlapping(t *testing.T) {
	b := newBench(t)
	var ws []*Window
	for i := 0; i < 5; i++ {
		ws = append(ws, b.wm.Create("w", display.Rect{X: 50, Y: 50, W: 200, H: 200}))
	}
	b.wm.Tile()
	for i := 0; i < len(ws); i++ {
		ri := ws[i].Bounds()
		if ri.X < 0 || ri.Y < 0 ||
			ri.X+ri.W > display.FrameWidth || ri.Y+ri.H > display.VisibleHeight {
			t.Fatalf("tiled window %d off screen: %+v", i, ri)
		}
		for j := i + 1; j < len(ws); j++ {
			if intersects(ri, ws[j].Bounds()) {
				t.Fatalf("tiled windows %d and %d overlap: %+v %+v", i, j, ri, ws[j].Bounds())
			}
		}
	}
	b.drain(t)
}

func TestLayoutString(t *testing.T) {
	b := newBench(t)
	b.wm.Create("mail", display.Rect{X: 0, Y: 0, W: 100, H: 100})
	s := b.wm.Layout()
	if !strings.Contains(s, "mail") || !strings.Contains(s, "*") {
		t.Fatalf("layout = %q", s)
	}
}

func TestDestroyUnmanagedPanics(t *testing.T) {
	b := newBench(t)
	w := b.wm.Create("w", display.Rect{X: 0, Y: 0, W: 100, H: 100})
	b.wm.Destroy(w)
	defer func() {
		if recover() == nil {
			t.Fatal("double destroy did not panic")
		}
	}()
	b.wm.Destroy(w)
}

func TestUnionAndIntersects(t *testing.T) {
	a := display.Rect{X: 0, Y: 0, W: 10, H: 10}
	c := display.Rect{X: 20, Y: 20, W: 5, H: 5}
	u := union(a, c)
	if u.X != 0 || u.Y != 0 || u.W != 25 || u.H != 25 {
		t.Fatalf("union = %+v", u)
	}
	if intersects(a, c) {
		t.Fatal("disjoint rects intersect")
	}
	if !intersects(a, display.Rect{X: 5, Y: 5, W: 10, H: 10}) {
		t.Fatal("overlapping rects do not intersect")
	}
}
