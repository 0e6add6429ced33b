package core

import (
	"testing"

	"firefly/internal/mbus"
	"firefly/internal/memory"
	"firefly/internal/sim"
)

// rig assembles a bus, memory, and n caches for direct-drive tests.
type rig struct {
	clock  *sim.Clock
	bus    *mbus.Bus
	mem    *memory.System
	caches []*Cache
}

func newRig(t testing.TB, n int, proto Protocol, lines int) *rig {
	return newRigArb(t, n, proto, lines, nil)
}

func newRigArb(t testing.TB, n int, proto Protocol, lines int, arb mbus.Arbiter) *rig {
	t.Helper()
	r := &rig{clock: &sim.Clock{}}
	r.mem = memory.NewMicroVAXSystem(4)
	r.bus = mbus.New(r.clock, arb, r.mem)
	for i := 0; i < n; i++ {
		c := NewCache(r.clock, proto, lines)
		r.bus.Attach(c, c, nil)
		r.caches = append(r.caches, c)
	}
	return r
}

// run steps the rig for n cycles.
func (r *rig) run(n int) {
	for i := 0; i < n; i++ {
		r.clock.Tick()
		r.bus.Step()
	}
}

// complete submits an access on cache i and runs until it finishes,
// returning read data for reads.
func (r *rig) complete(t testing.TB, i int, acc Access) uint32 {
	t.Helper()
	c := r.caches[i]
	if done := c.Submit(acc); done {
		return c.LastRead()
	}
	for cycles := 0; c.Busy(); cycles++ {
		if cycles > 100 {
			t.Fatalf("access %+v on cache %d did not complete", acc, i)
		}
		r.run(1)
	}
	return c.LastRead()
}

func (r *rig) read(t testing.TB, i int, addr mbus.Addr) uint32 {
	t.Helper()
	return r.complete(t, i, Access{Addr: addr})
}

func (r *rig) write(t testing.TB, i int, addr mbus.Addr, data uint32) {
	t.Helper()
	r.complete(t, i, Access{Write: true, Addr: addr, Data: data})
}

func TestStatePredicates(t *testing.T) {
	cases := []struct {
		s                    State
		valid, dirty, shared bool
	}{
		{Invalid, false, false, false},
		{Exclusive, true, false, false},
		{Dirty, true, true, false},
		{Shared, true, false, true},
		{SharedDirty, true, true, true},
	}
	for _, c := range cases {
		if c.s.Valid() != c.valid || c.s.IsDirty() != c.dirty || c.s.IsShared() != c.shared {
			t.Errorf("%v predicates wrong", c.s)
		}
		if c.s.String() == "" {
			t.Errorf("state %d has no name", c.s)
		}
	}
}

func TestNewCachePanicsOnNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 3000 lines")
		}
	}()
	NewCache(&sim.Clock{}, Firefly{}, 3000)
}

func TestReadMissFillsFromMemory(t *testing.T) {
	r := newRig(t, 1, Firefly{}, 16)
	r.mem.Poke(0x100, 0xfeed)
	got := r.read(t, 0, 0x100)
	if got != 0xfeed {
		t.Fatalf("read = %#x, want 0xfeed", got)
	}
	c := r.caches[0]
	if c.LineState(0x100) != Exclusive {
		t.Fatalf("state = %v, want Exclusive", c.LineState(0x100))
	}
	st := c.Stats()
	if st.ReadMisses != 1 || st.Fills != 1 || st.ReadHits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReadHitNoBus(t *testing.T) {
	r := newRig(t, 1, Firefly{}, 16)
	r.mem.Poke(0x100, 7)
	r.read(t, 0, 0x100)
	before := r.bus.Stats().TotalOps()
	if done := r.caches[0].Submit(Access{Addr: 0x100}); !done {
		t.Fatal("read hit did not complete immediately")
	}
	if r.caches[0].LastRead() != 7 {
		t.Fatalf("hit data = %d", r.caches[0].LastRead())
	}
	if r.bus.Stats().TotalOps() != before {
		t.Fatal("read hit generated bus traffic")
	}
}

func TestWriteHitExclusiveGoesDirtyNoBus(t *testing.T) {
	r := newRig(t, 1, Firefly{}, 16)
	r.read(t, 0, 0x40) // fill Exclusive
	before := r.bus.Stats().TotalOps()
	if done := r.caches[0].Submit(Access{Write: true, Addr: 0x40, Data: 9}); !done {
		t.Fatal("write hit on Exclusive did not complete immediately")
	}
	if got := r.caches[0].LineState(0x40); got != Dirty {
		t.Fatalf("state = %v, want Dirty", got)
	}
	if r.bus.Stats().TotalOps() != before {
		t.Fatal("exclusive write hit used the bus")
	}
	if w, _ := r.caches[0].PeekWord(0x40); w != 9 {
		t.Fatalf("cached word = %d", w)
	}
	// Memory must be stale: write-back semantics.
	if r.mem.Peek(0x40) == 9 {
		t.Fatal("write-back line updated memory on write hit")
	}
}

func TestWriteHitDirtyStaysDirty(t *testing.T) {
	r := newRig(t, 1, Firefly{}, 16)
	r.write(t, 0, 0x40, 1) // direct write miss -> Exclusive (clean)
	r.write(t, 0, 0x40, 2) // hit Exclusive -> Dirty
	r.write(t, 0, 0x40, 3) // hit Dirty -> Dirty
	if got := r.caches[0].LineState(0x40); got != Dirty {
		t.Fatalf("state = %v", got)
	}
	if w, _ := r.caches[0].PeekWord(0x40); w != 3 {
		t.Fatalf("word = %d", w)
	}
}

func TestDirectWriteMissLeavesClean(t *testing.T) {
	// "Instead of doing a read, then overwriting the line with write data,
	// the cache simply does write-through, leaving the line clean."
	r := newRig(t, 1, Firefly{}, 16)
	r.write(t, 0, 0x80, 0xaa)
	c := r.caches[0]
	if got := c.LineState(0x80); got != Exclusive {
		t.Fatalf("state = %v, want Exclusive (clean)", got)
	}
	if r.mem.Peek(0x80) != 0xaa {
		t.Fatal("direct write miss did not update memory")
	}
	st := c.Stats()
	if st.DirectWriteMisses != 1 || st.Fills != 0 {
		t.Fatalf("stats = %+v", st)
	}
	bst := r.bus.Stats()
	if bst.Ops[mbus.MRead] != 0 || bst.Ops[mbus.MWrite] != 1 {
		t.Fatalf("bus ops = %+v", bst.Ops)
	}
}

func TestPartialWriteMissFills(t *testing.T) {
	// "A write miss is treated as a read miss followed immediately by a
	// write hit" — for sub-longword writes.
	r := newRig(t, 1, Firefly{}, 16)
	r.mem.Poke(0x80, 0x11223344)
	r.complete(t, 0, Access{Write: true, Partial: true, Addr: 0x80, Data: 0x112233ff})
	c := r.caches[0]
	if got := c.LineState(0x80); got != Dirty {
		t.Fatalf("state = %v, want Dirty", got)
	}
	st := c.Stats()
	if st.Fills != 1 || st.DirectWriteMisses != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if w, _ := c.PeekWord(0x80); w != 0x112233ff {
		t.Fatalf("word = %#x", w)
	}
}

func TestDirtyVictimWriteBack(t *testing.T) {
	r := newRig(t, 1, Firefly{}, 16)
	r.write(t, 0, 0x40, 1) // Exclusive via direct write
	r.write(t, 0, 0x40, 2) // Dirty
	// 16 lines * 4 bytes: address 0x40 + 16*4 maps to the same set.
	conflict := mbus.Addr(0x40 + 16*4)
	r.read(t, 0, conflict)
	if r.mem.Peek(0x40) != 2 {
		t.Fatal("dirty victim not written back")
	}
	st := r.caches[0].Stats()
	if st.VictimWrites != 1 {
		t.Fatalf("victim writes = %d", st.VictimWrites)
	}
	if got := r.caches[0].LineState(conflict); got != Exclusive {
		t.Fatalf("state = %v", got)
	}
	if r.caches[0].Contains(0x40) {
		t.Fatal("victim still resident")
	}
}

func TestCleanVictimNotWrittenBack(t *testing.T) {
	r := newRig(t, 1, Firefly{}, 16)
	r.read(t, 0, 0x40) // Exclusive, clean
	r.read(t, 0, 0x40+16*4)
	if st := r.caches[0].Stats(); st.VictimWrites != 0 {
		t.Fatalf("clean victim written back: %+v", st)
	}
}

func TestReadSharingSetsSharedBothSides(t *testing.T) {
	r := newRig(t, 2, Firefly{}, 16)
	r.mem.Poke(0x100, 5)
	r.read(t, 0, 0x100)
	if got := r.caches[0].LineState(0x100); got != Exclusive {
		t.Fatalf("first reader state = %v", got)
	}
	got := r.read(t, 1, 0x100)
	if got != 5 {
		t.Fatalf("second reader data = %d", got)
	}
	if s0 := r.caches[0].LineState(0x100); s0 != Shared {
		t.Fatalf("holder state = %v, want Shared", s0)
	}
	if s1 := r.caches[1].LineState(0x100); s1 != Shared {
		t.Fatalf("requester state = %v, want Shared", s1)
	}
	st0 := r.caches[0].Stats()
	if st0.SnoopSupplies != 1 {
		t.Fatalf("holder supplies = %d", st0.SnoopSupplies)
	}
}

func TestDirtyHolderSuppliesOnRead(t *testing.T) {
	r := newRig(t, 2, Firefly{}, 16)
	r.write(t, 0, 0x100, 1)
	r.write(t, 0, 0x100, 42) // now Dirty with 42; memory has 1
	got := r.read(t, 1, 0x100)
	if got != 42 {
		t.Fatalf("reader got %d, want 42 (from dirty holder)", got)
	}
	// Both become Shared; memory was refreshed by the reflection.
	if s := r.caches[0].LineState(0x100); s != Shared {
		t.Fatalf("holder state = %v", s)
	}
	if r.mem.Peek(0x100) != 42 {
		t.Fatal("memory not refreshed when dirty line became shared")
	}
}

func TestConditionalWriteThroughUpdatesSharers(t *testing.T) {
	r := newRig(t, 3, Firefly{}, 16)
	r.mem.Poke(0x200, 10)
	for i := 0; i < 3; i++ {
		r.read(t, i, 0x200)
	}
	r.write(t, 0, 0x200, 77)
	// Every sharer and main memory now hold 77.
	for i := 0; i < 3; i++ {
		w, ok := r.caches[i].PeekWord(0x200)
		if !ok || w != 77 {
			t.Fatalf("cache %d word = %d,%v", i, w, ok)
		}
		if s := r.caches[i].LineState(0x200); s != Shared {
			t.Fatalf("cache %d state = %v", i, s)
		}
	}
	if r.mem.Peek(0x200) != 77 {
		t.Fatal("write-through missed memory")
	}
	st := r.caches[0].Stats()
	if st.WriteThroughShared != 1 {
		t.Fatalf("writer stats = %+v", st)
	}
}

func TestLastSharerRevertsToWriteBack(t *testing.T) {
	// "When a location ceases to be shared, only one extra write-through is
	// done by the last cache that contains the location."
	r := newRig(t, 2, Firefly{}, 16)
	r.read(t, 0, 0x200)
	r.read(t, 1, 0x200) // both Shared
	// Cache 1 evicts the line by reading a conflicting address.
	r.read(t, 1, 0x200+16*4)
	// Cache 0 still thinks the line is Shared; its next write is a
	// write-through that receives no MShared and clears the Shared tag.
	r.write(t, 0, 0x200, 5)
	if s := r.caches[0].LineState(0x200); s != Exclusive {
		t.Fatalf("state after unshared write-through = %v, want Exclusive", s)
	}
	st := r.caches[0].Stats()
	if st.WriteThroughClean != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Subsequent writes are local (write-back regime).
	before := r.bus.Stats().TotalOps()
	r.write(t, 0, 0x200, 6)
	if r.bus.Stats().TotalOps() != before {
		t.Fatal("reverted line still writing through")
	}
	if s := r.caches[0].LineState(0x200); s != Dirty {
		t.Fatalf("state = %v, want Dirty", s)
	}
}

func TestWriteMissOnLineSharedElsewhere(t *testing.T) {
	// A direct write miss to a line other caches hold updates them and
	// arrives Shared.
	r := newRig(t, 2, Firefly{}, 16)
	r.read(t, 0, 0x300) // cache 0 Exclusive
	r.write(t, 1, 0x300, 33)
	if s := r.caches[1].LineState(0x300); s != Shared {
		t.Fatalf("writer state = %v, want Shared", s)
	}
	if w, _ := r.caches[0].PeekWord(0x300); w != 33 {
		t.Fatalf("original holder word = %d, want 33 (updated)", w)
	}
	if s := r.caches[0].LineState(0x300); s != Shared {
		t.Fatalf("original holder state = %v", s)
	}
}

func TestSubmitWhileBusyPanics(t *testing.T) {
	r := newRig(t, 1, Firefly{}, 16)
	r.caches[0].Submit(Access{Addr: 0x40}) // miss, in flight
	defer func() {
		if recover() == nil {
			t.Fatal("double submit did not panic")
		}
	}()
	r.caches[0].Submit(Access{Addr: 0x44})
}

func TestTagStoreBusyDuringSnoop(t *testing.T) {
	r := newRig(t, 2, Firefly{}, 16)
	r.read(t, 0, 0x100)
	r.read(t, 0, 0x104) // resident in another set
	// Start a read on cache 1 that will probe cache 0's tags in cycle 2.
	r.caches[1].Submit(Access{Addr: 0x100})
	r.run(1) // cycle: arbitration
	if r.caches[0].TagStoreBusyWithin(r.clock.Now(), 1) {
		t.Fatal("tag store busy before the probe cycle")
	}
	r.run(1) // cycle: tag probe
	if !r.caches[0].TagStoreBusyWithin(r.clock.Now(), 1) {
		t.Fatal("tag store not busy during the probe cycle")
	}
	// The snoop holds set 0x100 until it commits in the next cycle: a
	// Submit to that set panics, one to another set proceeds.
	write := Access{Write: true, Addr: 0x100, Data: 5}
	if !submitPanics(r.caches[0], write) {
		t.Fatal("Submit to the set of a live snoop did not panic")
	}
	if !r.caches[0].Submit(Access{Addr: 0x104}) {
		t.Fatal("read hit in another set did not complete during the probe")
	}
	r.run(1) // cycle: MShared and commit; both copies are now Shared
	if r.caches[0].TagStoreBusyWithin(r.clock.Now(), 1) {
		t.Fatal("tag store still busy after transaction")
	}
	// The same write now meets the committed Shared line, so it writes
	// through and updates cache 1, whose read completes first.
	if r.caches[0].Submit(write) {
		t.Fatal("write to the snooped line completed locally after the commit")
	}
	r.drain(t)
	if got := r.caches[0].Stats().WriteThroughShared; got != 1 {
		t.Errorf("%d shared write-throughs, want 1", got)
	}
	if got, ok := r.caches[1].PeekWord(0x100); !ok || got != 5 {
		t.Errorf("cache 1 holds %d (resident=%v), want 5", got, ok)
	}
}

// submitPanics reports whether c.Submit(acc) panics.
func submitPanics(c *Cache, acc Access) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	c.Submit(acc)
	return false
}

func TestStatsBusOpsMatchBusPerPort(t *testing.T) {
	r := newRig(t, 2, Firefly{}, 16)
	r.mem.Poke(0x100, 1)
	for i := 0; i < 10; i++ {
		a := mbus.Addr(i * 4)
		r.write(t, 0, a, uint32(i))
		r.read(t, 1, a)
		r.write(t, 1, a, uint32(i)*2)
	}
	bst := r.bus.Stats()
	for i, c := range r.caches {
		if got := c.Stats().BusOps(); got != bst.PerPort[i] {
			t.Fatalf("cache %d claims %d bus ops, bus saw %d", i, got, bst.PerPort[i])
		}
	}
}

func TestMissRateAndDirtyFraction(t *testing.T) {
	r := newRig(t, 1, Firefly{}, 16)
	for i := 0; i < 16; i++ {
		r.read(t, 0, mbus.Addr(i*4)) // 16 misses
	}
	for i := 0; i < 16; i++ {
		r.read(t, 0, mbus.Addr(i*4)) // 16 hits
	}
	st := r.caches[0].Stats()
	if st.MissRate() != 0.5 {
		t.Fatalf("miss rate = %v, want 0.5", st.MissRate())
	}
	if r.caches[0].ValidLines() != 16 {
		t.Fatalf("valid lines = %d", r.caches[0].ValidLines())
	}
	if r.caches[0].DirtyFraction() != 0 {
		t.Fatalf("dirty fraction = %v, want 0", r.caches[0].DirtyFraction())
	}
	// Dirty half the lines.
	for i := 0; i < 8; i++ {
		r.write(t, 0, mbus.Addr(i*4), 1) // write-through? no: Exclusive -> Dirty, local
	}
	if got := r.caches[0].DirtyFraction(); got != 0.5 {
		t.Fatalf("dirty fraction = %v, want 0.5", got)
	}
}

func TestResidentLine(t *testing.T) {
	r := newRig(t, 1, Firefly{}, 16)
	if _, ok := r.caches[0].ResidentLine(3); ok {
		t.Fatal("empty cache reported resident line")
	}
	r.read(t, 0, 0x40+3*4) // index 3 within first span? 0x40>>2 = 16 -> idx 0... compute directly
	idx := r.caches[0].index(0x40 + 3*4)
	addr, ok := r.caches[0].ResidentLine(idx)
	if !ok || addr != (0x40+3*4) {
		t.Fatalf("resident line = %v,%v", addr, ok)
	}
	if _, ok := r.caches[0].ResidentLine(-1); ok {
		t.Fatal("negative index reported resident")
	}
	if _, ok := r.caches[0].ResidentLine(99); ok {
		t.Fatal("out-of-range index reported resident")
	}
}

func TestResetStats(t *testing.T) {
	r := newRig(t, 1, Firefly{}, 16)
	r.read(t, 0, 0x40)
	r.caches[0].ResetStats()
	st := r.caches[0].Stats()
	if st.Reads != 0 || st.Fills != 0 {
		t.Fatalf("stats not reset: %+v", st)
	}
	if !r.caches[0].Contains(0x40) {
		t.Fatal("ResetStats flushed the cache contents")
	}
}

// faultFirst faults the first n bus operations with a parity error.
type faultFirst struct{ n int }

func (f *faultFirst) OpFault(mbus.OpKind, mbus.Addr) (mbus.FaultKind, uint64) {
	if f.n == 0 {
		return mbus.FaultNone, 0
	}
	f.n--
	return mbus.FaultParity, 0
}

// TestRetryRaisesLineForBackoffExpiry pins how a faulted access uses
// its request line. A retry raises the line to arbitrate at the backoff's
// expiry: the bus reports that cycle and grants the retry in it, not a
// cycle later. An access abandoned after its last retry leaves the line
// down, so the bus has nothing left to do.
func TestRetryRaisesLineForBackoffExpiry(t *testing.T) {
	r := newRig(t, 1, Firefly{}, 16)
	c := r.caches[0]
	r.bus.SetFaultPolicy(&faultFirst{n: 1}, 1, 5)
	r.mem.Poke(0x40, 77)
	c.Submit(Access{Addr: 0x40})
	r.run(mbus.OpCycles) // the faulted operation completes in cycle 4
	now := r.clock.Now()
	if at, up := r.bus.Raised(0); !up || at != now+5 {
		t.Fatalf("after the fault at cycle %d: line up %v, arbitrates from %d; want up from %d", now, up, at, now+5)
	}
	if ev := r.bus.NextEvent(now); ev != now+5 {
		t.Fatalf("bus NextEvent during the backoff = %d, want %d", ev, now+5)
	}
	r.run(4)
	if r.bus.Busy() {
		t.Fatalf("retry granted at cycle %d, before its backoff expired", r.clock.Now())
	}
	r.run(1)
	if !r.bus.Busy() {
		t.Fatalf("retry not granted at its backoff expiry, cycle %d", r.clock.Now())
	}
	r.run(mbus.OpCycles)
	if c.Busy() || c.LastRead() != 77 || c.MachineCheck() {
		t.Fatalf("retried read: busy %v, read %d, machine check %v; want done, 77, none", c.Busy(), c.LastRead(), c.MachineCheck())
	}

	// Abandonment: the retry faults too and exhausts the budget.
	r.bus.SetFaultPolicy(&faultFirst{n: 2}, 1, 5)
	c.Submit(Access{Addr: 0x80})
	r.run(mbus.OpCycles + 5 + mbus.OpCycles)
	if c.Busy() || !c.MachineCheck() {
		t.Fatalf("abandoned access: busy %v, machine check %v; want done with a machine check", c.Busy(), c.MachineCheck())
	}
	if _, up := r.bus.Raised(0); up {
		t.Fatal("an abandoned access left its request line up")
	}
	if ev := r.bus.NextEvent(r.clock.Now()); ev != sim.Never {
		t.Fatalf("bus NextEvent after the abandon = %d, want Never", ev)
	}
}
