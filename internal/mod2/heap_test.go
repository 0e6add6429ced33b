package mod2

import (
	"testing"
	"testing/quick"

	"firefly/internal/machine"
	"firefly/internal/sim"
	"firefly/internal/topaz"
)

func newHeap(t testing.TB, slots int) (*topaz.Kernel, *Heap) {
	t.Helper()
	m := machine.New(machine.MicroVAXConfig(2))
	k := topaz.NewKernel(m, topaz.Config{})
	return k, NewHeap(k, slots)
}

func TestAllocAndRCFree(t *testing.T) {
	_, h := newHeap(t, 8)
	a := h.Alloc()
	b := h.Alloc()
	if a < 0 || b < 0 || h.Live() != 2 {
		t.Fatalf("alloc failed: %d %d live=%d", a, b, h.Live())
	}
	h.Link(a, b)
	if h.Object(b).RC() != 1 {
		t.Fatalf("rc = %d", h.Object(b).RC())
	}
	// b's stack ref goes away: still held by a's field.
	h.DropRoot(b)
	if h.Live() != 2 {
		t.Fatal("counted object freed while referenced")
	}
	// a's root goes away: a freed, cascade frees b.
	h.DropRoot(a)
	if h.Live() != 0 {
		t.Fatalf("cascade failed: live=%d", h.Live())
	}
	if h.Stats().RCFrees != 2 {
		t.Fatalf("rc frees = %d", h.Stats().RCFrees)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestZeroCountTableDefersRootedObjects(t *testing.T) {
	// "REFs on the stack are identified by a conservative scan": a zero
	// count must not free an object a stack frame still holds.
	_, h := newHeap(t, 8)
	a := h.Alloc()
	b := h.Alloc()
	h.Link(a, b)
	h.Unlink(a, b) // b: rc 0, but still rooted
	if h.Live() != 2 {
		t.Fatal("rooted object freed on zero count")
	}
	h.DropRoot(b)
	if h.Live() != 1 {
		t.Fatal("unrooted zero-count object not freed")
	}
}

func TestHeapFull(t *testing.T) {
	_, h := newHeap(t, 2)
	h.Alloc()
	h.Alloc()
	if h.Alloc() != -1 {
		t.Fatal("full heap allocated")
	}
}

func TestCycleNeedsTracer(t *testing.T) {
	_, h := newHeap(t, 8)
	a := h.Alloc()
	b := h.Alloc()
	h.Link(a, b)
	h.Link(b, a)
	h.DropRoot(a)
	h.DropRoot(b)
	// The cycle keeps both counts at 1: RC cannot reclaim it.
	if h.Live() != 2 {
		t.Fatalf("cyclic garbage count wrong: %d", h.Live())
	}
	h.StartCycle()
	for !h.MarkBatch(64) {
	}
	for !h.SweepBatch(64) {
	}
	if h.Live() != 0 {
		t.Fatalf("tracer missed the cycle: live=%d", h.Live())
	}
	// The tracer breaks the cycle; sweeping the first member drops the
	// second's count to zero, so it may be reclaimed through the reference
	// counter an instant before the sweep reaches it. Either way both are
	// gone and at least one was the tracer's doing.
	st := h.Stats()
	if st.CycleFrees < 1 || st.CycleFrees+st.RCFrees != 2 {
		t.Fatalf("frees: cycle=%d rc=%d", st.CycleFrees, st.RCFrees)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTracerKeepsReachable(t *testing.T) {
	_, h := newHeap(t, 16)
	root := h.Alloc()
	child := h.Alloc()
	grand := h.Alloc()
	h.Link(root, child)
	h.Link(child, grand)
	h.DropRoot(child)
	h.DropRoot(grand)
	// Unreachable garbage beside them.
	junk := h.Alloc()
	h.DropRoot(junk) // rc-freed immediately
	cyc1, cyc2 := h.Alloc(), h.Alloc()
	h.Link(cyc1, cyc2)
	h.Link(cyc2, cyc1)
	h.DropRoot(cyc1)
	h.DropRoot(cyc2)

	h.StartCycle()
	for !h.MarkBatch(4) {
	}
	for !h.SweepBatch(4) {
	}
	if !h.Object(root).alive || !h.Object(child).alive || !h.Object(grand).alive {
		t.Fatal("tracer freed reachable objects")
	}
	if h.Live() != 3 {
		t.Fatalf("live = %d, want 3", h.Live())
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierProtectsRelinkedObject(t *testing.T) {
	// The lost-object scenario: during marking, the only reference to a
	// white object moves behind the marker's back. The write barrier must
	// save it.
	_, h := newHeap(t, 16)
	b := h.Alloc() // slot 0: scanned second (frontier pops the highest)
	x := h.Alloc() // slot 1
	a := h.Alloc() // slot 2: scanned first, becomes black immediately
	h.Link(b, x)
	h.DropRoot(x)

	h.StartCycle()
	// Mark one object: the frontier stack pops slot 2 (a), which has no
	// children, so a is black while b (holding the only edge to x) is
	// still unscanned.
	h.MarkBatch(1)
	// Move x behind the marker's back: now referenced only from black a.
	h.Link(a, x)
	h.Unlink(b, x)
	for !h.MarkBatch(64) {
	}
	for !h.SweepBatch(64) {
	}
	if !h.Object(x).alive {
		t.Fatal("write barrier lost a live object")
	}
	if h.Stats().Barriers == 0 {
		t.Fatal("barrier never fired")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAddRootDuringCycleProtects(t *testing.T) {
	_, h := newHeap(t, 16)
	a := h.Alloc()
	x := h.Alloc()
	h.Link(a, x)
	h.DropRoot(x)
	h.StartCycle()
	// The mutator picks x up onto its stack and severs the heap edge
	// before the marker reaches it.
	h.AddRoot(x)
	h.Unlink(a, x)
	for !h.MarkBatch(64) {
	}
	for !h.SweepBatch(64) {
	}
	if !h.Object(x).alive {
		t.Fatal("rooted object swept")
	}
}

func TestAllocDuringCycleBornBlack(t *testing.T) {
	_, h := newHeap(t, 16)
	a := h.Alloc()
	_ = a
	h.StartCycle()
	fresh := h.Alloc()
	for !h.MarkBatch(64) {
	}
	for !h.SweepBatch(64) {
	}
	if !h.Object(fresh).alive {
		t.Fatal("object allocated during collection was swept")
	}
}

func TestHeapPanics(t *testing.T) {
	_, h := newHeap(t, 4)
	a := h.Alloc()
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("DropRoot dead", func() { h.DropRoot(3) })
	mustPanic("Link dead", func() { h.Link(a, 3) })
	mustPanic("Unlink absent", func() { h.Unlink(a, a) })
	mustPanic("AddRoot range", func() { h.AddRoot(-1) })
	mustPanic("double StartCycle", func() { h.StartCycle(); h.StartCycle() })
}

// TestStaleEdgeAfterSlotReuse is the regression test for the generation
// check: during a sweep, a white object's slot is freed and immediately
// reallocated; a second white object still holding an edge to the old
// tenant is swept afterwards. Its stale edge must not decrement (or
// resurrect) the new tenant.
func TestStaleEdgeAfterSlotReuse(t *testing.T) {
	_, h := newHeap(t, 8)
	tgt := h.Alloc() // slot 0: swept first
	x := h.Alloc()   // slot 1: holds an edge to tgt, swept second
	y := h.Alloc()   // slot 2: cycle partner keeping x unreclaimable by RC
	h.Link(x, tgt)
	h.Link(y, tgt)
	h.Link(x, y)
	h.Link(y, x)
	h.DropRoot(tgt)
	h.DropRoot(x)
	h.DropRoot(y) // everything garbage; tgt.rc=2 so only the sweep frees it

	h.StartCycle()
	for !h.MarkBatch(64) {
	}
	// Sweep exactly one slot: tgt (slot 0) is freed.
	if h.SweepBatch(1) {
		t.Fatal("sweep finished too early")
	}
	if h.Object(tgt).alive {
		t.Fatal("precondition: tgt not swept first")
	}
	// The mutator reallocates the slot mid-sweep.
	n := h.Alloc()
	if n != tgt {
		t.Fatalf("precondition: slot not reused (got %d, want %d)", n, tgt)
	}
	// Sweeping x and y must skip their stale edges to the reused slot.
	for !h.SweepBatch(64) {
	}
	if !h.Object(n).alive {
		t.Fatal("new tenant was killed by a stale edge")
	}
	if h.Object(n).RC() != 0 {
		t.Fatalf("new tenant rc = %d, want 0", h.Object(n).RC())
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if h.Live() != 1 {
		t.Fatalf("live = %d, want only the new tenant", h.Live())
	}
}

// TestRandomMutationInvariants drives random heap operations (no
// collector) and checks invariants throughout.
func TestRandomMutationInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		_, h := newHeap(t, 32)
		rng := sim.NewRand(seed)
		var held []int
		for op := 0; op < 400; op++ {
			switch {
			case len(held) == 0 || (len(held) < 12 && rng.Hit(sim.NewChance(0.4))):
				if s := h.Alloc(); s >= 0 {
					held = append(held, s)
				}
			case rng.Hit(sim.NewChance(0.4)):
				h.Link(held[rng.Intn(len(held))], held[rng.Intn(len(held))])
			case rng.Hit(sim.NewChance(0.4)):
				o := h.Object(held[rng.Intn(len(held))])
				if targets := o.Refs(); len(targets) > 0 {
					h.Unlink(o.Slot(), targets[rng.Intn(len(targets))])
				}
			default:
				i := rng.Intn(len(held))
				h.DropRoot(held[i])
				held = append(held[:i], held[i+1:]...)
			}
			if op%50 == 0 {
				if err := h.CheckInvariants(); err != nil {
					t.Log(err)
					return false
				}
			}
		}
		// A full GC afterward reclaims everything unreachable.
		h.StartCycle()
		for !h.MarkBatch(64) {
		}
		for !h.SweepBatch(64) {
		}
		if err := h.CheckInvariants(); err != nil {
			t.Log(err)
			return false
		}
		return h.Live() == len(h.Reachable())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentMutatorCollector runs the mutator and collector as Topaz
// threads on a 2-CPU machine and verifies safety (no reachable object
// freed) and liveness (cyclic garbage eventually reclaimed).
func TestConcurrentMutatorCollector(t *testing.T) {
	m := machine.New(machine.MicroVAXConfig(2))
	k := topaz.NewKernel(m, topaz.Config{Quantum: 1200})
	h := NewHeap(k, 256)
	mutatorDone := false
	mutator := k.Fork(MutatorProgram(h, MutatorConfig{Ops: 300, Seed: 9}), topaz.ThreadSpec{Name: "mutator"}, nil)
	k.Fork(CollectorProgram(h, CollectorConfig{Stop: func() bool {
		return mutatorDone && !h.Collecting()
	}}), topaz.ThreadSpec{Name: "collector"}, nil)

	mutatorDone = m.RunUntil(func() bool { return mutator.State() == topaz.Done }, 200_000_000)
	if !mutatorDone || !m.RunUntil(k.Done, 200_000_000) {
		t.Fatalf("mutator/collector did not finish; stuck=%v", k.Stuck())
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// All roots were dropped at mutator exit; after the collector's final
	// cycles only reachable (= zero) objects remain... cyclic garbage
	// created after the last full cycle may survive; run one final cycle.
	h.StartCycle()
	for !h.MarkBatch(256) {
	}
	for !h.SweepBatch(256) {
	}
	if h.Live() != 0 {
		t.Fatalf("garbage survived: %d live", h.Live())
	}
	st := h.Stats()
	if st.CycleFrees == 0 {
		t.Fatal("collector reclaimed no cycles despite cyclic garbage")
	}
	if st.GCCycles == 0 {
		t.Fatal("no GC cycles completed")
	}
}
