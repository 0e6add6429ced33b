package coherence

import (
	"testing"

	"firefly/internal/core"
	"firefly/internal/mbus"
	"firefly/internal/memory"
	"firefly/internal/sim"
)

// newRigGeometry builds a rig with an explicit line geometry.
func newRigGeometry(t testing.TB, n int, proto core.Protocol, lines, lineWords int) *rig {
	t.Helper()
	r := &rig{clock: &sim.Clock{}}
	r.mem = memory.NewMicroVAXSystem(4)
	r.bus = mbus.New(r.clock, nil, r.mem)
	for i := 0; i < n; i++ {
		c := core.NewCacheGeometry(r.clock, proto, lines, lineWords)
		r.bus.Attach(c, c, nil)
		r.caches = append(r.caches, c)
	}
	return r
}

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

// TestVictimWriteBackAbortsWhenStripped is the regression test for the
// snoop-during-write-back race: cache 1 holds X dirty and evicts it, but
// before its victim MWrite wins arbitration, cache 0's read-for-ownership
// of X serializes first — cache 1 supplies the line and invalidates.
// Cache 1's now-stale victim write used to proceed anyway; snooping it,
// the new owner either invalidated its fresh dirty copy (MESI) or took
// the stale data (Berkeley), losing the new write. The write-back must be
// abandoned once a snoop strips the line's dirt.
func TestVictimWriteBackAbortsWhenStripped(t *testing.T) {
	// X and Y share a cache set (16 lines, one word each), so writing Y
	// evicts X.
	const X, Y = mbus.Addr(0x100), mbus.Addr(0x140)
	for _, proto := range []core.Protocol{MESI{}, Berkeley{}} {
		t.Run(proto.Name(), func(t *testing.T) {
			r := newRigGeometry(t, 2, proto, 16, 1)
			r.write(t, 1, X, 111) // cache 1 owns X dirty
			// Same cycle: cache 1 starts evicting X (victim MWrite pending),
			// cache 0 requests ownership of X. Cache 0 has bus priority, so
			// its read-for-ownership serializes ahead of the victim write.
			r.caches[1].Submit(core.Access{Write: true, Addr: Y, Data: 222})
			r.caches[0].Submit(core.Access{Write: true, Addr: X, Data: 7777})
			r.drain(t)

			if got := r.read(t, 0, X); got != 7777 {
				t.Errorf("%s: cache 0 reads X = %d after owning write, want 7777", proto.Name(), got)
			}
			if got := r.read(t, 1, Y); got != 222 {
				t.Errorf("%s: cache 1 reads Y = %d, want 222", proto.Name(), got)
			}
		})
	}
}

// TestWriteSerializedAgainstDeadLine is the regression test for the
// dead-line write completion race: caches 0 and 1 both hold a multi-word
// line Shared and write different words in the same cycle. Cache 0's bus
// operation serializes first and (under an invalidation protocol) kills
// cache 1's copy — but cache 1's own pending operation then completed "as
// a hit" on the dead line, resurrecting it with its written word fresh and
// every other word stale. A data-carrying write-through must leave the
// dead line dead; an MInv-based write hit must restart as a write miss.
func TestWriteSerializedAgainstDeadLine(t *testing.T) {
	for _, proto := range []core.Protocol{MESI{}, WriteThroughInvalidate{}} {
		t.Run(proto.Name(), func(t *testing.T) {
			r := newRigGeometry(t, 2, proto, 16, 4)
			for w := 0; w < 4; w++ {
				r.mem.Poke(mbus.Addr(0x200+w*4), uint32(100+w))
			}
			r.read(t, 0, 0x200) // both caches Shared
			r.read(t, 1, 0x200)
			// Same cycle: both write the shared line. Cache 0 has bus
			// priority, so its operation serializes first and invalidates
			// cache 1's copy while cache 1's own operation is pending.
			r.caches[1].Submit(core.Access{Write: true, Addr: 0x208, Data: 222})
			r.caches[0].Submit(core.Access{Write: true, Addr: 0x204, Data: 111})
			r.drain(t)

			if got := r.read(t, 1, 0x204); got != 111 {
				t.Errorf("%s: cache 1 reads word 1 = %d, want 111 (lost first writer's word)", proto.Name(), got)
			}
			if got := r.read(t, 1, 0x208); got != 222 {
				t.Errorf("%s: cache 1 reads word 2 = %d, want 222", proto.Name(), got)
			}
			if got := r.read(t, 0, 0x208); got != 222 {
				t.Errorf("%s: cache 0 reads word 2 = %d, want 222", proto.Name(), got)
			}
		})
	}
}

// TestFillPoisonedByOwnershipClaim: cache 1 is mid-fill of a multi-word
// line when cache 0's read-for-ownership of the same line serializes
// between its word reads. The buffered words are dead — completing the
// fill would install a stale copy invisible to the new owner's local
// writes. The fill must be discarded and the miss retried, after which
// the new owner supplies the current data.
func TestFillPoisonedByOwnershipClaim(t *testing.T) {
	for _, proto := range []core.Protocol{MESI{}, Berkeley{}} {
		t.Run(proto.Name(), func(t *testing.T) {
			r := newRigGeometry(t, 2, proto, 16, 4)
			for w := 0; w < 4; w++ {
				r.mem.Poke(mbus.Addr(0x200+w*4), uint32(200+w))
			}
			// Cache 1 (low priority) starts a read fill of the line.
			r.caches[1].Submit(core.Access{Addr: 0x200})
			r.run(10) // two of four words fetched
			// Cache 0 claims the line for writing mid-fill.
			r.caches[0].Submit(core.Access{Write: true, Addr: 0x204, Data: 7777})
			r.drain(t)

			if got := r.read(t, 1, 0x204); got != 7777 {
				t.Errorf("%s: cache 1 reads %d after concurrent owning write, want 7777", proto.Name(), got)
			}
			if got := r.read(t, 1, 0x200); got != 200 {
				t.Errorf("%s: cache 1 reads word 0 = %d, want 200", proto.Name(), got)
			}
		})
	}
}
