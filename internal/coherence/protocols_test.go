package coherence

import (
	"testing"

	"firefly/internal/core"
	"firefly/internal/mbus"
	"firefly/internal/memory"
	"firefly/internal/sim"
)

// rig assembles a bus, memory, and n caches for protocol tests.
type rig struct {
	clock  *sim.Clock
	bus    *mbus.Bus
	mem    *memory.System
	caches []*core.Cache
}

func newRig(t testing.TB, n int, proto core.Protocol, lines int) *rig {
	t.Helper()
	r := &rig{clock: &sim.Clock{}}
	r.bus = mbus.New(r.clock, nil)
	r.mem = memory.NewMicroVAXSystem(4)
	r.bus.AttachMemory(r.mem)
	for i := 0; i < n; i++ {
		c := core.NewCache(r.clock, proto, lines)
		r.bus.Attach(c, c, nil)
		r.caches = append(r.caches, c)
	}
	return r
}

func (r *rig) run(n int) {
	for i := 0; i < n; i++ {
		r.clock.Tick()
		r.bus.Step()
	}
}

func (r *rig) complete(t testing.TB, i int, acc core.Access) uint32 {
	t.Helper()
	c := r.caches[i]
	if done := c.Submit(acc); done {
		return c.LastRead()
	}
	for cycles := 0; c.Busy(); cycles++ {
		if cycles > 200 {
			t.Fatalf("access %+v on cache %d did not complete", acc, i)
		}
		r.run(1)
	}
	return c.LastRead()
}

func (r *rig) read(t testing.TB, i int, addr mbus.Addr) uint32 {
	t.Helper()
	return r.complete(t, i, core.Access{Addr: addr})
}

func (r *rig) write(t testing.TB, i int, addr mbus.Addr, data uint32) {
	t.Helper()
	r.complete(t, i, core.Access{Write: true, Addr: addr, Data: data})
}

// checkInvariants verifies the cross-protocol coherence invariants:
//
//  1. every valid cached copy of an address holds the same value;
//  2. at most one cache holds an address in a modified state;
//  3. a line in the exclusive-modified state (Dirty) has no other holders;
//  4. if no cached copy is modified, memory agrees with the cached value.
func checkInvariants(t *testing.T, r *rig, proto core.Protocol, addrs []mbus.Addr) {
	t.Helper()
	for _, a := range addrs {
		a = a.Line()
		var holders, dirtyHolders []int
		var vals []uint32
		exclusiveModified := false
		for i, c := range r.caches {
			if !c.Contains(a) {
				continue
			}
			holders = append(holders, i)
			w, _ := c.PeekWord(a)
			vals = append(vals, w)
			s := c.LineState(a)
			if s.IsDirty() {
				dirtyHolders = append(dirtyHolders, i)
				if s == core.Dirty {
					exclusiveModified = true
				}
			}
		}
		for i := 1; i < len(vals); i++ {
			if vals[i] != vals[0] {
				t.Fatalf("%s: addr %v divergent copies %v in caches %v", proto.Name(), a, vals, holders)
			}
		}
		if len(dirtyHolders) > 1 {
			t.Fatalf("%s: addr %v modified in caches %v", proto.Name(), a, dirtyHolders)
		}
		if exclusiveModified && len(holders) > 1 {
			t.Fatalf("%s: addr %v exclusive-modified but held by %v", proto.Name(), a, holders)
		}
		if len(dirtyHolders) == 0 && len(holders) > 0 {
			if m := r.mem.Peek(a); m != vals[0] {
				t.Fatalf("%s: addr %v clean copies hold %#x, memory %#x", proto.Name(), a, vals[0], m)
			}
		}
	}
}

// TestProtocolLinearizability drives every protocol with random
// single-outstanding traffic and checks each read against a flat reference
// memory, then checks the global invariants.
func TestProtocolLinearizability(t *testing.T) {
	for _, proto := range All() {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			const nCaches = 4
			r := newRig(t, nCaches, proto, 16)
			rng := sim.NewRand(0xf1ef)
			ref := make(map[mbus.Addr]uint32)
			addrs := make([]mbus.Addr, 24)
			for i := range addrs {
				addrs[i] = mbus.Addr(i * 4)
			}
			for step := 0; step < 3000; step++ {
				ci := rng.Intn(nCaches)
				a := addrs[rng.Intn(len(addrs))]
				if rng.Hit(sim.NewChance(0.4)) {
					v := uint32(step + 1)
					r.complete(t, ci, core.Access{
						Write: true, Partial: rng.Hit(sim.NewChance(0.2)), Addr: a, Data: v,
					})
					ref[a] = v
				} else {
					if got := r.complete(t, ci, core.Access{Addr: a}); got != ref[a] {
						t.Fatalf("step %d: read %v = %#x, want %#x", step, a, got, ref[a])
					}
				}
				if step%500 == 0 {
					checkInvariants(t, r, proto, addrs)
				}
			}
			checkInvariants(t, r, proto, addrs)
		})
	}
}

// TestProtocolConcurrentInvariants keeps an access in flight on every
// cache simultaneously and checks invariants at quiescence.
func TestProtocolConcurrentInvariants(t *testing.T) {
	for _, proto := range All() {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			const nCaches = 4
			r := newRig(t, nCaches, proto, 16)
			rng := sim.NewRand(77)
			addrs := make([]mbus.Addr, 12)
			for i := range addrs {
				addrs[i] = mbus.Addr(i * 4)
			}
			for round := 0; round < 150; round++ {
				for ci := 0; ci < nCaches; ci++ {
					a := addrs[rng.Intn(len(addrs))]
					if rng.Hit(sim.NewChance(0.5)) {
						r.caches[ci].Submit(core.Access{Write: true, Addr: a, Data: uint32(rng.Uint64())})
					} else {
						r.caches[ci].Submit(core.Access{Addr: a})
					}
				}
				for cycles := 0; ; cycles++ {
					busy := false
					for _, c := range r.caches {
						busy = busy || c.Busy()
					}
					if !busy {
						break
					}
					if cycles > 10000 {
						t.Fatal("no quiescence")
					}
					r.run(1)
				}
				checkInvariants(t, r, proto, addrs)
			}
		})
	}
}

// TestProtocolMultiWordLinearizability repeats the linearizability soak
// with four-word lines for every protocol: fills are multi-operation,
// victim write-backs move whole lines, and dirty lines flush completely
// when snooped clean.
func TestProtocolMultiWordLinearizability(t *testing.T) {
	for _, proto := range All() {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			const nCaches = 3
			r := &rig{clock: &sim.Clock{}}
			r.bus = mbus.New(r.clock, nil)
			r.mem = memory.NewMicroVAXSystem(4)
			r.bus.AttachMemory(r.mem)
			for i := 0; i < nCaches; i++ {
				c := core.NewCacheGeometry(r.clock, proto, 16, 4)
				r.bus.Attach(c, c, nil)
				r.caches = append(r.caches, c)
			}
			rng := sim.NewRand(0x4c1e)
			ref := make(map[mbus.Addr]uint32)
			addrs := make([]mbus.Addr, 48)
			for i := range addrs {
				addrs[i] = mbus.Addr(i * 4)
			}
			for step := 0; step < 2000; step++ {
				ci := rng.Intn(nCaches)
				a := addrs[rng.Intn(len(addrs))]
				if rng.Hit(sim.NewChance(0.4)) {
					v := uint32(step + 1)
					r.complete(t, ci, core.Access{Write: true, Addr: a, Data: v})
					ref[a] = v
				} else {
					if got := r.complete(t, ci, core.Access{Addr: a}); got != ref[a] {
						t.Fatalf("step %d: read %v = %#x, want %#x", step, a, got, ref[a])
					}
				}
			}
			checkInvariants(t, r, proto, addrs)
		})
	}
}

func TestWTIWriteAlwaysUsesBus(t *testing.T) {
	r := newRig(t, 1, WriteThroughInvalidate{}, 16)
	r.write(t, 0, 0x40, 1)
	r.write(t, 0, 0x40, 2) // hit, but still write-through
	r.write(t, 0, 0x40, 3)
	if got := r.bus.Stats().Ops[mbus.MWrite]; got != 3 {
		t.Fatalf("bus writes = %d, want 3", got)
	}
	if st := r.caches[0].LineState(0x40); st.IsDirty() {
		t.Fatalf("WTI line dirty: %v", st)
	}
	if r.mem.Peek(0x40) != 3 {
		t.Fatal("memory not current under write-through")
	}
}

func TestWTIInvalidatesOnSnoopedWrite(t *testing.T) {
	r := newRig(t, 2, WriteThroughInvalidate{}, 16)
	r.read(t, 0, 0x40)
	r.write(t, 1, 0x40, 9)
	if r.caches[0].Contains(0x40) {
		t.Fatal("snooped write did not invalidate")
	}
	// The reload costs an extra miss — the paper's criticism.
	before := r.caches[0].Stats().ReadMisses
	r.read(t, 0, 0x40)
	if r.caches[0].Stats().ReadMisses != before+1 {
		t.Fatal("reload after invalidation was not a miss")
	}
}

func TestMESIWriteHitSharedInvalidates(t *testing.T) {
	r := newRig(t, 2, MESI{}, 16)
	r.mem.Poke(0x80, 5)
	r.read(t, 0, 0x80)
	r.read(t, 1, 0x80) // both Shared
	if s := r.caches[0].LineState(0x80); s != core.Shared {
		t.Fatalf("state = %v", s)
	}
	r.write(t, 0, 0x80, 6)
	if s := r.caches[0].LineState(0x80); s != core.Dirty {
		t.Fatalf("writer state = %v, want Dirty (M)", s)
	}
	if r.caches[1].Contains(0x80) {
		t.Fatal("sharer not invalidated")
	}
	if got := r.bus.Stats().Ops[mbus.MInv]; got != 1 {
		t.Fatalf("MInv count = %d", got)
	}
}

func TestMESISilentEToM(t *testing.T) {
	r := newRig(t, 2, MESI{}, 16)
	r.read(t, 0, 0x80) // E
	before := r.bus.Stats().TotalOps()
	r.write(t, 0, 0x80, 1)
	if r.bus.Stats().TotalOps() != before {
		t.Fatal("E->M transition used the bus")
	}
}

func TestMESIFlushReflectsToMemory(t *testing.T) {
	r := newRig(t, 2, MESI{}, 16)
	r.write(t, 0, 0x80, 42) // miss -> MReadOwn -> M
	if r.mem.Peek(0x80) == 42 {
		t.Fatal("M line should not have written memory yet")
	}
	got := r.read(t, 1, 0x80)
	if got != 42 {
		t.Fatalf("flush data = %d", got)
	}
	if r.mem.Peek(0x80) != 42 {
		t.Fatal("flush did not reflect to memory")
	}
	if s := r.caches[0].LineState(0x80); s != core.Shared {
		t.Fatalf("flushed line state = %v, want Shared", s)
	}
}

func TestBerkeleyOwnerSuppliesMemoryStale(t *testing.T) {
	r := newRig(t, 2, Berkeley{}, 16)
	r.write(t, 0, 0x100, 7) // MReadOwn -> OwnedExclusive
	got := r.read(t, 1, 0x100)
	if got != 7 {
		t.Fatalf("read = %d, want 7 from owner", got)
	}
	if s := r.caches[0].LineState(0x100); s != core.SharedDirty {
		t.Fatalf("owner state = %v, want SharedDirty (OwnedShared)", s)
	}
	if s := r.caches[1].LineState(0x100); s != core.Shared {
		t.Fatalf("reader state = %v, want Shared (UnOwned)", s)
	}
	// Ownership means memory stays stale until write-back.
	if r.mem.Peek(0x100) == 7 {
		t.Fatal("memory updated despite retained ownership")
	}
	// Evicting the owner writes the line back.
	r.read(t, 0, 0x100+16*4)
	if r.mem.Peek(0x100) != 7 {
		t.Fatal("owner eviction did not write back")
	}
}

func TestBerkeleyWriteHitUnownedClaimsOwnership(t *testing.T) {
	r := newRig(t, 2, Berkeley{}, 16)
	r.write(t, 0, 0x100, 1)
	r.read(t, 1, 0x100) // cache1 UnOwned
	r.write(t, 1, 0x100, 2)
	if s := r.caches[1].LineState(0x100); s != core.Dirty {
		t.Fatalf("new owner state = %v", s)
	}
	if r.caches[0].Contains(0x100) {
		t.Fatal("previous owner not invalidated")
	}
}

func TestDragonUpdateSkipsMemory(t *testing.T) {
	r := newRig(t, 2, Dragon{}, 16)
	r.mem.Poke(0x200, 1)
	r.read(t, 0, 0x200)
	r.read(t, 1, 0x200) // both Shared
	r.write(t, 0, 0x200, 50)
	if w, _ := r.caches[1].PeekWord(0x200); w != 50 {
		t.Fatalf("sharer word = %d, want 50 (updated)", w)
	}
	if r.mem.Peek(0x200) == 50 {
		t.Fatal("Dragon update wrote memory")
	}
	if s := r.caches[0].LineState(0x200); s != core.SharedDirty {
		t.Fatalf("writer state = %v, want SharedDirty (owner)", s)
	}
	// The owner's eviction brings memory current.
	r.read(t, 0, 0x200+16*4)
	if r.mem.Peek(0x200) != 50 {
		t.Fatal("owner eviction did not write back")
	}
}

func TestDragonWriterBecomesSoleOwnerWhenUnshared(t *testing.T) {
	r := newRig(t, 2, Dragon{}, 16)
	r.read(t, 0, 0x200)
	r.read(t, 1, 0x200)
	r.read(t, 1, 0x200+16*4) // cache1 evicts its copy
	r.write(t, 0, 0x200, 9)  // update sees no MShared
	if s := r.caches[0].LineState(0x200); s != core.Dirty {
		t.Fatalf("state = %v, want Dirty (reverted to private)", s)
	}
}

func TestDragonOwnershipTransfersOnUpdate(t *testing.T) {
	r := newRig(t, 2, Dragon{}, 16)
	r.read(t, 0, 0x200)
	r.read(t, 1, 0x200)
	r.write(t, 0, 0x200, 5) // cache0 owner (SharedDirty)
	r.write(t, 1, 0x200, 6) // ownership moves to cache1
	if s := r.caches[1].LineState(0x200); s != core.SharedDirty {
		t.Fatalf("new owner state = %v", s)
	}
	if s := r.caches[0].LineState(0x200); s != core.Shared {
		t.Fatalf("old owner state = %v, want Shared", s)
	}
}

func TestAllAndByName(t *testing.T) {
	ps := All()
	if len(ps) != 5 {
		t.Fatalf("All() returned %d protocols", len(ps))
	}
	if ps[0].Name() != "firefly" {
		t.Fatalf("first protocol = %q, want firefly", ps[0].Name())
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Name()] {
			t.Fatalf("duplicate protocol name %q", p.Name())
		}
		seen[p.Name()] = true
		got, ok := ByName(p.Name())
		if !ok || got == nil {
			t.Fatalf("ByName(%q) not found", p.Name())
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName of unknown protocol reported found")
	}
	names := Names()
	if len(names) != len(ps) {
		t.Fatalf("Names() returned %d entries, want %d", len(names), len(ps))
	}
	for i, p := range ps {
		if names[i] != p.Name() {
			t.Fatalf("Names()[%d] = %q, want %q", i, names[i], p.Name())
		}
	}
}

// TestSharingTrafficContrast demonstrates the paper's qualitative claim:
// under true sharing, update protocols (Firefly, Dragon) generate steady
// but cheap write-through traffic while invalidation protocols force the
// other sharers to re-miss. Measured here as read misses per sharer during
// a producer/consumer ping-pong.
func TestSharingTrafficContrast(t *testing.T) {
	missCount := func(proto core.Protocol) uint64 {
		r := newRig(t, 2, proto, 16)
		const a = mbus.Addr(0x40)
		r.read(t, 0, a)
		r.read(t, 1, a)
		for i := 0; i < 50; i++ {
			r.write(t, 0, a, uint32(i)) // producer writes
			r.read(t, 1, a)             // consumer reads
		}
		return r.caches[1].Stats().ReadMisses
	}
	firefly := missCount(core.Firefly{})
	mesi := missCount(MESI{})
	wti := missCount(WriteThroughInvalidate{})
	if firefly != 1 {
		t.Fatalf("firefly consumer misses = %d, want 1 (initial only)", firefly)
	}
	if mesi <= firefly || wti <= firefly {
		t.Fatalf("invalidation protocols should re-miss: firefly=%d mesi=%d wti=%d", firefly, mesi, wti)
	}
}
