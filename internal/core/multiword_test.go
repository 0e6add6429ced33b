package core

import (
	"testing"

	"firefly/internal/mbus"
	"firefly/internal/memory"
	"firefly/internal/sim"
)

// newRigGeometry builds a rig with multi-word cache lines.
func newRigGeometry(t testing.TB, n int, proto Protocol, lines, lineWords int) *rig {
	t.Helper()
	r := &rig{clock: &sim.Clock{}}
	r.mem = memory.NewMicroVAXSystem(4)
	r.bus = mbus.New(r.clock, nil, r.mem)
	for i := 0; i < n; i++ {
		c := NewCacheGeometry(r.clock, proto, lines, lineWords)
		r.bus.Attach(c, c, nil)
		r.caches = append(r.caches, c)
	}
	return r
}

func TestMultiWordGeometry(t *testing.T) {
	c := NewCacheGeometry(&sim.Clock{}, Firefly{}, 16, 4)
	if c.LineWords() != 4 || c.LineBytes() != 16 {
		t.Fatalf("geometry: %d words, %d bytes", c.LineWords(), c.LineBytes())
	}
	// Addresses 0x40..0x4f share one line; 0x50 starts the next.
	if c.index(0x40) != c.index(0x4c) {
		t.Fatal("words of one line map to different sets")
	}
	if c.index(0x40) == c.index(0x50) {
		t.Fatal("adjacent lines map to the same set (with 16 sets they shouldn't)")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two line words accepted")
		}
	}()
	NewCacheGeometry(&sim.Clock{}, Firefly{}, 16, 3)
}

func TestMultiWordFillFetchesWholeLine(t *testing.T) {
	r := newRigGeometry(t, 1, Firefly{}, 16, 4)
	for w := 0; w < 4; w++ {
		r.mem.Poke(mbus.Addr(0x100+w*4), uint32(100+w))
	}
	got := r.read(t, 0, 0x108) // middle word of the line
	if got != 102 {
		t.Fatalf("read = %d, want 102", got)
	}
	c := r.caches[0]
	st := c.Stats()
	if st.Fills != 1 || st.FillOps != 4 {
		t.Fatalf("fills=%d fillOps=%d, want 1/4", st.Fills, st.FillOps)
	}
	// Every word of the line is now a hit.
	for w := 0; w < 4; w++ {
		if v, ok := c.PeekWord(mbus.Addr(0x100 + w*4)); !ok || v != uint32(100+w) {
			t.Fatalf("word %d = %d,%v", w, v, ok)
		}
	}
	before := r.bus.Stats().TotalOps()
	for w := 0; w < 4; w++ {
		r.read(t, 0, mbus.Addr(0x100+w*4))
	}
	if r.bus.Stats().TotalOps() != before {
		t.Fatal("spatial locality broken: same-line reads used the bus")
	}
}

func TestMultiWordSpatialLocality(t *testing.T) {
	// Sequential access misses once per line: the reason a larger line
	// "would probably have reduced the miss rate considerably".
	r := newRigGeometry(t, 1, Firefly{}, 64, 8)
	for i := 0; i < 128; i++ {
		r.read(t, 0, mbus.Addr(i*4))
	}
	st := r.caches[0].Stats()
	if st.ReadMisses != 16 { // 128 words / 8 per line
		t.Fatalf("misses = %d, want 16", st.ReadMisses)
	}
	if got := st.MissRate(); got != 0.125 {
		t.Fatalf("miss rate = %v, want 1/8", got)
	}
}

func TestMultiWordVictimWritesWholeLine(t *testing.T) {
	r := newRigGeometry(t, 1, Firefly{}, 16, 4)
	// Dirty two words of a line (fill first: no direct write-miss path
	// with multi-word lines).
	r.write(t, 0, 0x100, 11)
	r.write(t, 0, 0x104, 12)
	st := r.caches[0].Stats()
	if st.DirectWriteMisses != 0 {
		t.Fatal("direct write-miss optimization must be off for multi-word lines")
	}
	// Evict via a conflicting line (16 sets * 16 bytes = 256-byte span).
	r.read(t, 0, 0x100+16*16)
	st = r.caches[0].Stats()
	if st.VictimWrites != 1 || st.VictimOps != 4 {
		t.Fatalf("victims=%d victimOps=%d, want 1/4", st.VictimWrites, st.VictimOps)
	}
	if r.mem.Peek(0x100) != 11 || r.mem.Peek(0x104) != 12 {
		t.Fatalf("victim data lost: %d %d", r.mem.Peek(0x100), r.mem.Peek(0x104))
	}
}

// TestMultiWordDirtyFlushOnSnoop is the regression test for the multi-word
// coherence hazard: when a snooped read strips a dirty line of its dirt,
// every word — not just the snooped one — must reach memory, or the
// un-snooped words are silently lost when both clean copies evict.
func TestMultiWordDirtyFlushOnSnoop(t *testing.T) {
	r := newRigGeometry(t, 2, Firefly{}, 16, 4)
	r.write(t, 0, 0x100, 21) // word 0 dirty
	r.write(t, 0, 0x10c, 24) // word 3 dirty, same line
	if s := r.caches[0].LineState(0x100); s != Dirty {
		t.Fatalf("precondition: state = %v", s)
	}
	// Cache 1 reads word 1 of the line: cache 0's line goes Shared
	// (clean); the flush must have pushed words 0 and 3 to memory.
	r.read(t, 1, 0x104)
	if s := r.caches[0].LineState(0x100); s != Shared {
		t.Fatalf("state after snoop = %v", s)
	}
	if r.mem.Peek(0x100) != 21 || r.mem.Peek(0x10c) != 24 {
		t.Fatalf("dirty words not flushed: %d %d", r.mem.Peek(0x100), r.mem.Peek(0x10c))
	}
	// Both copies are clean; evict both and re-read from memory.
	r.read(t, 0, 0x100+16*16)
	r.read(t, 1, 0x104+16*16)
	if got := r.read(t, 0, 0x10c); got != 24 {
		t.Fatalf("word lost after clean evictions: %d", got)
	}
}

func TestMultiWordConditionalWriteThrough(t *testing.T) {
	r := newRigGeometry(t, 2, Firefly{}, 16, 4)
	r.mem.Poke(0x100, 1)
	r.mem.Poke(0x104, 2)
	r.read(t, 0, 0x100)
	r.read(t, 1, 0x104) // both caches hold the whole line, Shared
	r.write(t, 0, 0x104, 99)
	if w, _ := r.caches[1].PeekWord(0x104); w != 99 {
		t.Fatalf("sharer word = %d", w)
	}
	if w, _ := r.caches[1].PeekWord(0x100); w != 1 {
		t.Fatalf("untouched word corrupted: %d", w)
	}
	if r.mem.Peek(0x104) != 99 {
		t.Fatal("write-through missed memory")
	}
}

func TestMultiWordLinearizability(t *testing.T) {
	const nCaches = 3
	r := newRigGeometry(t, nCaches, Firefly{}, 16, 4)
	rng := sim.NewRand(4242)
	ref := make(map[mbus.Addr]uint32)
	addrs := make([]mbus.Addr, 48) // 12 lines over 16 sets
	for i := range addrs {
		addrs[i] = mbus.Addr(i * 4)
	}
	for step := 0; step < 3000; step++ {
		ci := rng.Intn(nCaches)
		a := addrs[rng.Intn(len(addrs))]
		if rng.Hit(sim.NewChance(0.4)) {
			v := uint32(step + 1)
			r.complete(t, ci, Access{Write: true, Addr: a, Data: v})
			ref[a] = v
		} else {
			if got := r.complete(t, ci, Access{Addr: a}); got != ref[a] {
				t.Fatalf("step %d: read %v = %#x, want %#x", step, a, got, ref[a])
			}
		}
	}
	checkInvariants(t, r, addrs)
}

// TestGeometryProperties checks index/offset/base arithmetic for random
// addresses and geometries.
func TestGeometryProperties(t *testing.T) {
	clock := &sim.Clock{}
	for _, lw := range []int{1, 2, 4, 8, 16} {
		c := NewCacheGeometry(clock, Firefly{}, 64, lw)
		for i := 0; i < 2000; i++ {
			a := mbus.Addr(uint32(i*2654435761) % (1 << 22))
			base := c.lineBase(a)
			if uint32(base)%uint32(lw*4) != 0 {
				t.Fatalf("lw=%d addr=%v: base %v misaligned", lw, a, base)
			}
			if a < base || a >= base+mbus.Addr(lw*4) {
				t.Fatalf("lw=%d addr=%v: outside its line base %v", lw, a, base)
			}
			if c.index(a) != c.index(base) {
				t.Fatalf("lw=%d addr=%v: index differs from base", lw, a)
			}
			off := c.wordOff(a)
			if off < 0 || off >= lw {
				t.Fatalf("lw=%d addr=%v: offset %d", lw, a, off)
			}
			if base+mbus.Addr(off*4) != a.Line() {
				t.Fatalf("lw=%d addr=%v: base+off != word address", lw, a)
			}
		}
	}
}

func TestMultiWordMissCostScales(t *testing.T) {
	// A W-word fill occupies the bus W times as long: the trade the paper
	// declined ("it would have complicated the design of the cache, the
	// MBus, and the storage modules").
	missCost := func(lineWords int) uint64 {
		r := newRigGeometry(t, 1, Firefly{}, 16, lineWords)
		start := r.clock.Now()
		r.read(t, 0, 0x100)
		return uint64(r.clock.Now() - start)
	}
	one, eight := missCost(1), missCost(8)
	if eight < one*6 {
		t.Fatalf("8-word miss cost %d not ~8x the 1-word cost %d", eight, one)
	}
}
