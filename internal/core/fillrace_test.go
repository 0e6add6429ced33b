package core

import (
	"testing"

	"firefly/internal/mbus"
	"firefly/internal/memory"
	"firefly/internal/sim"
)

// newRigArbGeometry builds a rig with an explicit arbitration policy and
// cache geometry, for the fill-race tests that need op interleaving.
func newRigArbGeometry(t testing.TB, n int, proto Protocol, lines, lineWords int, arb mbus.Arbiter) *rig {
	t.Helper()
	r := &rig{clock: &sim.Clock{}}
	r.mem = memory.NewMicroVAXSystem(4)
	r.bus = mbus.New(r.clock, arb, r.mem)
	for i := 0; i < n; i++ {
		c := NewCacheGeometry(r.clock, proto, lines, lineWords)
		r.bus.Attach(c, c, nil)
		r.caches = append(r.caches, c)
	}
	return r
}

// drain runs until both caches are idle (bounded).
func (r *rig) drain(t testing.TB) {
	t.Helper()
	for c := 0; ; c++ {
		busy := false
		for _, ch := range r.caches {
			busy = busy || ch.Busy()
		}
		if !busy {
			return
		}
		if c > 500 {
			t.Fatal("rig did not drain")
		}
		r.run(1)
	}
}

// TestMultiWordFillSnoopsWrites is the regression test for the in-flight
// fill visibility bug: a multi-word fill installs tags only when the last
// word arrives, so a write-through serialized between two of its word
// reads used to be invisible to the filling cache — it completed the fill
// with the pre-write value of an already-buffered word, leaving two
// Shared copies with divergent data. The fill sequencer must snoop
// operations on its in-flight line and patch the buffered word.
func TestMultiWordFillSnoopsWrites(t *testing.T) {
	r := newRigArbGeometry(t, 2, Firefly{}, 16, 4, nil)
	for w := 0; w < 4; w++ {
		r.mem.Poke(mbus.Addr(0x200+w*4), uint32(200+w))
	}
	// Cache 0 (high priority) holds the line so its later write hits.
	r.read(t, 0, 0x204)
	// Cache 1 (low priority) starts a fill of the same line.
	r.caches[1].Submit(Access{Addr: 0x200})
	// Let cache 1 fetch word 0 and word 1.
	r.run(10)
	// Cache 0 writes word 1 mid-fill; with higher priority its write-through
	// interleaves between cache 1's remaining fill operations. It submits
	// once the probe of cache 1's third fill operation has committed.
	for r.caches[0].TagStoreBusyWithin(r.clock.Now(), 1) {
		r.run(1)
	}
	r.caches[0].Submit(Access{Write: true, Addr: 0x204, Data: 4444})
	r.drain(t)

	if got, ok := r.caches[1].PeekWord(0x204); !ok || got != 4444 {
		t.Errorf("filling cache holds %d (resident=%v) after concurrent write, want 4444", got, ok)
	}
	if got, ok := r.caches[0].PeekWord(0x204); !ok || got != 4444 {
		t.Errorf("writing cache holds %d (resident=%v), want 4444", got, ok)
	}
	if got := r.mem.Peek(0x204); got != 4444 {
		t.Errorf("memory holds %d, want 4444", got)
	}
	// Both caches hold copies, so both must be Shared.
	for i, c := range r.caches {
		if s := c.LineState(0x204); s != Shared {
			t.Errorf("cache %d state = %v, want Shared", i, s)
		}
	}
}

// TestMultiWordConcurrentFillsShared: two caches filling the same line
// with genuinely interleaved word reads (round-robin arbitration) must
// both observe the sharing and arrive Shared, so that a later write by
// either goes through the bus and updates the other.
func TestMultiWordConcurrentFillsShared(t *testing.T) {
	r := newRigArbGeometry(t, 2, Firefly{}, 16, 4, mbus.NewRoundRobin())
	for w := 0; w < 4; w++ {
		r.mem.Poke(mbus.Addr(0x100+w*4), uint32(100+w))
	}
	r.caches[0].Submit(Access{Addr: 0x100})
	r.caches[1].Submit(Access{Addr: 0x104})
	r.drain(t)
	for i, c := range r.caches {
		if s := c.LineState(0x100); s != Shared {
			t.Errorf("cache %d state = %v after concurrent fills, want Shared", i, s)
		}
	}
	r.write(t, 0, 0x100, 999)
	if got, ok := r.caches[1].PeekWord(0x100); !ok || got != 999 {
		t.Errorf("cache 1 holds %d (resident=%v) after cache 0 wrote 999", got, ok)
	}
}
