package net

import (
	"testing"

	"firefly/internal/sim"
)

// twoSegments builds two fast segments on one clock joined by a bridge
// whose route sends everything to the other port, station 0.
func twoSegments(t *testing.T, fwd uint64) (*sim.Clock, *Segment, *Segment, *Bridge) {
	t.Helper()
	clock := &sim.Clock{}
	s0 := NewSegment(clock, Config{WordCycles: 2, GapCycles: 4, Seed: 2})
	s1 := NewSegment(clock, Config{WordCycles: 2, GapCycles: 4, Seed: 3})
	route := func(words []uint32, in int) (int, int, bool) {
		return 1 - in, 0, true
	}
	br := NewBridge(clock, route, BridgeConfig{ForwardCycles: fwd})
	return clock, s0, s1, br
}

func TestBridgeForwardsAcrossSegments(t *testing.T) {
	clock, s0, s1, br := twoSegments(t, 0)
	var got []Frame
	a := s0.Attach(nil)
	s1.Attach(func(f Frame) { got = append(got, f) })
	br.AttachPort(s0) // station 1 on s0
	br.AttachPort(s1) // station 1 on s1

	sent := false
	a.Send(Frame{Dst: 1, Words: []uint32{7, 8, 9}}, func(ok bool) { sent = ok })
	for i := 0; i < 200 && len(got) == 0; i++ {
		clock.Tick()
		br.Step()
		s0.Step()
		s1.Step()
	}
	if !sent {
		t.Fatal("sender never saw its frame leave the first wire")
	}
	if len(got) != 1 {
		t.Fatalf("destination received %d frames, want 1", len(got))
	}
	if got[0].Dst != 0 || len(got[0].Words) != 3 || got[0].Words[0] != 7 {
		t.Fatalf("forwarded frame mangled: %+v", got[0])
	}
	if f := br.Stats().Forwarded.Value(); f != 1 {
		t.Fatalf("bridge forwarded %d frames, want 1", f)
	}
	if s1.Stats().Frames.Value() != 1 {
		t.Fatal("second segment never serialized the forwarded frame")
	}
}

// TestBridgeForwardLatency pins the store-and-forward timing: raising
// ForwardCycles by n delays the cross-segment delivery by exactly n.
func TestBridgeForwardLatency(t *testing.T) {
	deliveredAt := func(fwd uint64) sim.Cycle {
		clock, s0, s1, br := twoSegments(t, fwd)
		var at sim.Cycle
		a := s0.Attach(nil)
		s1.Attach(func(Frame) { at = clock.Now() })
		br.AttachPort(s0)
		br.AttachPort(s1)
		a.Send(Frame{Dst: 1, Words: []uint32{1, 2}}, nil)
		for i := 0; i < 300 && at == 0; i++ {
			clock.Tick()
			br.Step()
			s0.Step()
			s1.Step()
		}
		if at == 0 {
			t.Fatalf("fwd=%d: frame never delivered", fwd)
		}
		return at
	}
	base := deliveredAt(0)
	if d := deliveredAt(5); d != base+5 {
		t.Fatalf("ForwardCycles=5 delivered at %d, want %d", d, base+5)
	}
}

func TestBridgeUnroutableDrops(t *testing.T) {
	clock := &sim.Clock{}
	s0 := NewSegment(clock, Config{WordCycles: 2, GapCycles: 4, Seed: 2})
	s1 := NewSegment(clock, Config{WordCycles: 2, GapCycles: 4, Seed: 3})
	a := s0.Attach(nil)
	delivered := 0
	s1.Attach(func(Frame) { delivered++ })
	br := NewBridge(clock, func([]uint32, int) (int, int, bool) { return 0, 0, false }, BridgeConfig{})
	br.AttachPort(s0)
	br.AttachPort(s1)
	a.Send(Frame{Dst: 1, Words: []uint32{1}}, nil)
	for i := 0; i < 100; i++ {
		clock.Tick()
		br.Step()
		s0.Step()
		s1.Step()
	}
	if delivered != 0 {
		t.Fatalf("unroutable frame crossed the bridge %d times", delivered)
	}
	if u := br.Stats().Unroutable.Value(); u != 1 {
		t.Fatalf("unroutable count %d, want 1", u)
	}
	if br.Pending() != 0 {
		t.Fatalf("%d frames still held", br.Pending())
	}
}

func TestBridgeNextEvent(t *testing.T) {
	clock, s0, s1, br := twoSegments(t, 10)
	a := s0.Attach(nil)
	s1.Attach(nil)
	br.AttachPort(s0)
	br.AttachPort(s1)
	if ev := br.NextEvent(clock.Now()); ev != sim.Never {
		t.Fatalf("idle bridge NextEvent = %v, want Never", ev)
	}
	a.Send(Frame{Dst: 1, Words: []uint32{1, 2}}, nil)
	var captured sim.Cycle
	for i := 0; i < 100 && br.Pending() == 0; i++ {
		clock.Tick()
		br.Step()
		s0.Step()
		s1.Step()
		captured = clock.Now()
	}
	if br.Pending() != 1 {
		t.Fatal("bridge never captured the frame")
	}
	if ev, want := br.NextEvent(clock.Now()), captured+11; ev != want {
		t.Fatalf("held-frame NextEvent = %v, want %v (capture %v + ForwardCycles 10 + 1)",
			ev, want, captured)
	}
}

// TestEventHorizonNeverOverReports drives random traffic and checks the
// contract the cluster's windowed engine relies on: with no new sends,
// the segment makes no call-out (delivery, done, abort) at any cycle
// strictly before EventHorizon, and a frame Sent at now completes or
// aborts no earlier than now plus SendHorizon.
func TestEventHorizonNeverOverReports(t *testing.T) {
	clock := &sim.Clock{}
	s := NewSegment(clock, Config{WordCycles: 4, GapCycles: 8, SlotCycles: 16, MaxAttempts: 4, Seed: 5})
	callouts := 0
	record := func() { callouts++ }
	st := []*Station{
		s.Attach(func(Frame) { record() }),
		s.Attach(func(Frame) { record() }),
		s.Attach(func(Frame) { record() }),
	}
	rng := sim.NewRand(17)
	for iter := 0; iter < 4000; iter++ {
		if rng.Intn(3) == 0 {
			src := rng.Intn(len(st))
			dst := (src + 1 + rng.Intn(len(st)-1)) % len(st)
			words := make([]uint32, 1+rng.Intn(4))
			sent := clock.Now()
			st[src].Send(Frame{Dst: dst, Words: words}, func(bool) {
				record()
				if now, bound := clock.Now(), sent+s.SendHorizon(); now < bound {
					t.Fatalf("frame sent at %d called done at %d, before SendHorizon bound %d",
						sent, now, bound)
				}
			})
		}
		now := clock.Now()
		h := s.EventHorizon(now)
		w := sim.Cycle(40)
		if h != sim.Never && h-now-1 < w {
			w = h - now - 1
		}
		before := callouts
		for k := sim.Cycle(0); k < w; k++ {
			clock.Tick()
			s.Step()
		}
		if callouts != before {
			t.Fatalf("iter %d: %d call-outs inside [%d, %d), horizon %d",
				iter, callouts-before, now+1, now+w+1, h)
		}
		// Step across the horizon cycle itself so the wire drains.
		clock.Tick()
		s.Step()
	}
	if callouts == 0 {
		t.Fatal("traffic generator produced no deliveries; test proves nothing")
	}
}

func TestMinFrameWordsEnforced(t *testing.T) {
	clock := &sim.Clock{}
	s := NewSegment(clock, Config{MinFrameWords: 5})
	st := s.Attach(nil)
	s.Attach(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Send of a 4-word frame below MinFrameWords=5 did not panic")
		}
	}()
	st.Send(Frame{Dst: 1, Words: make([]uint32, 4)}, nil)
}
