// Package trestle implements the Firefly's window manager (§4.1):
// "a display manager called Trestle that provides both tiled and
// overlapping windows... Trestle handles allocation of display real
// estate and multiplexing of the keyboard and mouse among applications."
//
// The window manager renders through the MDC's command queue — every
// visible change becomes BitBlt work the display controller executes
// against the frame buffer — and routes the controller's 60 Hz input
// deposits to the window under the mouse or holding the keyboard focus.
// Applications in the real system talked to Trestle by RPC; here they
// call the API directly and the simulated cost lives in the MDC.
package trestle

import (
	"fmt"
	"sort"

	"firefly/internal/display"
)

// Window is one client window.
type Window struct {
	id      int
	title   string
	r       display.Rect
	body    []string
	wm      *WM
	focused bool
}

// ID returns the window identifier.
func (w *Window) ID() int { return w.id }

// Title returns the window title.
func (w *Window) Title() string { return w.title }

// Bounds returns the window rectangle in screen coordinates.
func (w *Window) Bounds() display.Rect { return w.r }

// Focused reports whether the window holds the keyboard focus.
func (w *Window) Focused() bool { return w.focused }

const (
	borderPx = 2
	titlePx  = 14
	// MinW and MinH bound window geometry.
	MinW = 40
	MinH = titlePx + 2*borderPx + 4
)

// WM is the window manager. Windows are kept bottom-to-top; the last
// entry is topmost.
type WM struct {
	mdc     *display.MDC
	windows []*Window
	nextID  int
	focus   *Window

	// Repaints counts full repaint passes; Commands the MDC commands
	// issued.
	Repaints uint64
	Commands uint64
}

// New returns a window manager drawing through the given controller. The
// desktop (the visible screen) is cleared immediately.
func New(mdc *display.MDC) *WM {
	wm := &WM{mdc: mdc}
	wm.submit(display.CmdFill{
		R:  display.Rect{X: 0, Y: 0, W: display.FrameWidth, H: display.VisibleHeight},
		Op: display.OpClear,
	})
	return wm
}

func (wm *WM) submit(cmd display.Command) {
	wm.mdc.Submit(cmd)
	wm.Commands++
}

// Windows returns the windows bottom-to-top.
func (wm *WM) Windows() []*Window {
	return append([]*Window(nil), wm.windows...)
}

// Focus returns the focused window, or nil.
func (wm *WM) Focus() *Window { return wm.focus }

// clampRect forces a window rectangle onto the visible screen with sane
// minimum size.
func clampRect(r display.Rect) display.Rect {
	if r.W < MinW {
		r.W = MinW
	}
	if r.H < MinH {
		r.H = MinH
	}
	if r.W > display.FrameWidth {
		r.W = display.FrameWidth
	}
	if r.H > display.VisibleHeight {
		r.H = display.VisibleHeight
	}
	if r.X < 0 {
		r.X = 0
	}
	if r.Y < 0 {
		r.Y = 0
	}
	if r.X+r.W > display.FrameWidth {
		r.X = display.FrameWidth - r.W
	}
	if r.Y+r.H > display.VisibleHeight {
		r.Y = display.VisibleHeight - r.H
	}
	return r
}

// Create opens a window, places it topmost, and gives it the focus.
func (wm *WM) Create(title string, r display.Rect) *Window {
	w := &Window{id: wm.nextID, title: title, r: clampRect(r), wm: wm}
	wm.nextID++
	wm.windows = append(wm.windows, w)
	wm.setFocus(w)
	wm.repaint(w.r)
	return w
}

// Destroy closes the window and repaints what it covered.
func (wm *WM) Destroy(w *Window) {
	idx := wm.indexOf(w)
	if idx < 0 {
		panic("trestle: destroying a window that is not managed")
	}
	damage := w.r
	wm.windows = append(wm.windows[:idx], wm.windows[idx+1:]...)
	if wm.focus == w {
		wm.focus = nil
		if n := len(wm.windows); n > 0 {
			wm.setFocus(wm.windows[n-1])
		}
	}
	wm.repaint(damage)
}

// Move relocates a window.
func (wm *WM) Move(w *Window, x, y int) {
	old := w.r
	w.r = clampRect(display.Rect{X: x, Y: y, W: old.W, H: old.H})
	wm.repaint(union(old, w.r))
}

// Raise brings a window to the top and focuses it.
func (wm *WM) Raise(w *Window) {
	idx := wm.indexOf(w)
	if idx < 0 {
		panic("trestle: raising a window that is not managed")
	}
	wm.windows = append(append(wm.windows[:idx], wm.windows[idx+1:]...), w)
	wm.setFocus(w)
	wm.repaint(w.r)
}

// SetText replaces the window's body lines and repaints it.
func (wm *WM) SetText(w *Window, lines []string) {
	w.body = append([]string(nil), lines...)
	wm.repaint(w.r)
}

func (wm *WM) indexOf(w *Window) int {
	for i, x := range wm.windows {
		if x == w {
			return i
		}
	}
	return -1
}

func (wm *WM) setFocus(w *Window) {
	if wm.focus == w {
		return
	}
	if wm.focus != nil {
		wm.focus.focused = false
	}
	wm.focus = w
	if w != nil {
		w.focused = true
	}
}

// WindowAt returns the topmost window containing (x, y), or nil.
func (wm *WM) WindowAt(x, y int) *Window {
	for i := len(wm.windows) - 1; i >= 0; i-- {
		w := wm.windows[i]
		if x >= w.r.X && x < w.r.X+w.r.W && y >= w.r.Y && y < w.r.Y+w.r.H {
			return w
		}
	}
	return nil
}

// RouteMouseClick raises and focuses the window under (x, y), returning
// it (nil for the desktop).
func (wm *WM) RouteMouseClick(x, y int) *Window {
	w := wm.WindowAt(x, y)
	if w != nil && wm.windows[len(wm.windows)-1] != w {
		wm.Raise(w)
	} else if w != nil {
		wm.setFocus(w)
	}
	return w
}

// union returns the bounding rectangle of a and b.
func union(a, b display.Rect) display.Rect {
	x1, y1 := a.X, a.Y
	if b.X < x1 {
		x1 = b.X
	}
	if b.Y < y1 {
		y1 = b.Y
	}
	x2, y2 := a.X+a.W, a.Y+a.H
	if b.X+b.W > x2 {
		x2 = b.X + b.W
	}
	if b.Y+b.H > y2 {
		y2 = b.Y + b.H
	}
	return display.Rect{X: x1, Y: y1, W: x2 - x1, H: y2 - y1}
}

func intersects(a, b display.Rect) bool {
	return a.X < b.X+b.W && b.X < a.X+a.W && a.Y < b.Y+b.H && b.Y < a.Y+a.H
}

// repaint redraws the damaged region: desktop background, then every
// intersecting window bottom-to-top (the painter's algorithm — occlusion
// falls out of draw order, exactly how the MDC's BitBlt was used).
func (wm *WM) repaint(damage display.Rect) {
	wm.Repaints++
	wm.submit(display.CmdFill{R: damage, Op: display.OpClear})
	for _, w := range wm.windows {
		if !intersects(w.r, damage) {
			continue
		}
		wm.draw(w)
	}
}

// draw emits the MDC commands for one window: border, title bar, body
// text.
func (wm *WM) draw(w *Window) {
	r := w.r
	// Border (filled frame, then hollowed interior).
	wm.submit(display.CmdFill{R: r, Op: display.OpSet})
	inner := display.Rect{
		X: r.X + borderPx, Y: r.Y + borderPx,
		W: r.W - 2*borderPx, H: r.H - 2*borderPx,
	}
	wm.submit(display.CmdFill{R: inner, Op: display.OpClear})
	// Title bar: focused windows get a solid bar with inverted text.
	bar := display.Rect{X: inner.X, Y: inner.Y, W: inner.W, H: titlePx}
	if w.focused {
		wm.submit(display.CmdFill{R: bar, Op: display.OpSet})
		wm.submit(display.CmdPaintString{S: w.title, X: bar.X + 4, Y: bar.Y + 1, Op: display.OpNotSrcAnd})
	} else {
		wm.submit(display.CmdPaintString{S: w.title, X: bar.X + 4, Y: bar.Y + 1, Op: display.OpOr})
	}
	wm.submit(display.CmdFill{
		R:  display.Rect{X: inner.X, Y: inner.Y + titlePx, W: inner.W, H: 1},
		Op: display.OpSet,
	})
	// Body text, clipped by line count to the window height.
	fontH := wm.mdc.Font().Height
	maxLines := (inner.H - titlePx - 2) / (fontH + 1)
	for i, line := range w.body {
		if i >= maxLines {
			break
		}
		wm.submit(display.CmdPaintString{
			S: line, X: inner.X + 4, Y: inner.Y + titlePx + 2 + i*(fontH+1),
			Op: display.OpOr,
		})
	}
}

// Tile arranges all windows in a non-overlapping grid covering the
// visible screen — Trestle's tiled mode. Windows are ordered by ID for a
// stable layout.
func (wm *WM) Tile() {
	n := len(wm.windows)
	if n == 0 {
		return
	}
	ordered := wm.Windows()
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].id < ordered[j].id })
	cols := 1
	for cols*cols < n {
		cols++
	}
	rows := (n + cols - 1) / cols
	cw := display.FrameWidth / cols
	ch := display.VisibleHeight / rows
	for i, w := range ordered {
		w.r = clampRect(display.Rect{
			X: (i % cols) * cw, Y: (i / cols) * ch, W: cw, H: ch,
		})
	}
	wm.repaint(display.Rect{X: 0, Y: 0, W: display.FrameWidth, H: display.VisibleHeight})
}

// Layout returns a short description of the current window placement,
// topmost last.
func (wm *WM) Layout() string {
	s := ""
	for _, w := range wm.windows {
		focus := ""
		if w.focused {
			focus = "*"
		}
		s += fmt.Sprintf("[%d%s %q %dx%d@%d,%d] ", w.id, focus, w.title, w.r.W, w.r.H, w.r.X, w.r.Y)
	}
	return s
}
