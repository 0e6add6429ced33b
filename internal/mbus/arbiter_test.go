package mbus

import (
	"slices"
	"testing"

	"firefly/internal/obs"
	"firefly/internal/sim"
)

// greedyInitiator always wants the bus: the saturating agent the
// starvation tests need. It raises its line when attached and again as
// each operation completes, at the next address so back-to-back
// operations are distinct.
type greedyInitiator struct {
	line   Line
	addr   Addr
	served int
}

func (g *greedyInitiator) BusAttach(l Line) {
	g.line = l
	g.line.Raise(Request{Op: MRead, Addr: g.addr}, 0)
}

func (g *greedyInitiator) BusComplete(Result) {
	g.served++
	g.addr += 4
	g.line.Raise(Request{Op: MRead, Addr: g.addr}, 0)
}

// saturate builds a bus with n always-requesting ports under the given
// arbiter, runs it, and returns per-port completed operations.
func saturate(t *testing.T, arb Arbiter, n, cycles int) []int {
	t.Helper()
	clock := &sim.Clock{}
	b := New(clock, arb, newFlatMemory())
	inits := make([]*greedyInitiator, n)
	for i := range inits {
		inits[i] = &greedyInitiator{addr: Addr(i) << 20}
		b.Attach(inits[i], nil, nil)
	}
	run(b, clock, cycles)
	grants := make([]int, n)
	for i, g := range inits {
		grants[i] = g.served
	}
	return grants
}

func minMax(vals []int) (lo, hi int) {
	lo, hi = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// TestFCFSBoundsStarvation is the policy layer's motivating contrast:
// under saturation, fixed priority starves every port but port 0
// outright, while FCFS and round-robin keep the max/min per-port service
// ratio bounded near 1.
func TestFCFSBoundsStarvation(t *testing.T) {
	const n, cycles = 4, 4000

	fixed := saturate(t, NewFixedPriority(), n, cycles)
	lo, hi := minMax(fixed)
	if lo != 0 || hi == 0 {
		t.Fatalf("fixed priority under saturation: grants %v, want port 0 monopolizing and the rest starved", fixed)
	}
	if fixed[0] != hi {
		t.Fatalf("fixed priority granted %v: highest service should be port 0", fixed)
	}

	for _, tc := range []struct{ name string }{{"fcfs"}, {"rr"}} {
		arb, ok := NewArbiterByName(tc.name)
		if !ok {
			t.Fatalf("NewArbiterByName(%q) unknown", tc.name)
		}
		grants := saturate(t, arb, n, cycles)
		lo, hi := minMax(grants)
		if lo == 0 {
			t.Fatalf("%s starved a port under saturation: grants %v", tc.name, grants)
		}
		if ratio := float64(hi) / float64(lo); ratio > 1.5 {
			t.Fatalf("%s max/min service ratio %.2f (grants %v), want near 1", tc.name, ratio, grants)
		}
	}
}

// TestWaitPerPortAccounting checks the per-port split sums to the
// aggregate wait counter and lands on the passed-over ports: under fixed
// priority port 0 never waits.
func TestWaitPerPortAccounting(t *testing.T) {
	clock := &sim.Clock{}
	b := New(clock, NewFixedPriority(), newFlatMemory())
	inits := make([]*greedyInitiator, 3)
	for i := range inits {
		inits[i] = &greedyInitiator{addr: Addr(i) << 20}
		b.Attach(inits[i], nil, nil)
	}
	run(b, clock, 400)
	st := b.Stats()
	var sum uint64
	for _, w := range st.WaitPerPort {
		sum += w
	}
	if sum != st.WaitCycles {
		t.Fatalf("WaitPerPort %v sums to %d, want WaitCycles %d", st.WaitPerPort, sum, st.WaitCycles)
	}
	if st.WaitCycles == 0 {
		t.Fatal("saturated 3-port bus recorded no wait cycles")
	}
	if st.WaitPerPort[0] != 0 {
		t.Fatalf("fixed priority: port 0 waited %d cycles, want 0", st.WaitPerPort[0])
	}
	if st.WaitPerPort[1] == 0 || st.WaitPerPort[2] == 0 {
		t.Fatalf("fixed priority: passed-over ports show no wait: %v", st.WaitPerPort)
	}

	b.ResetStats()
	st = b.Stats()
	for i, w := range st.WaitPerPort {
		if w != 0 {
			t.Fatalf("ResetStats left WaitPerPort[%d] = %d", i, w)
		}
	}
	if len(st.WaitPerPort) != 3 {
		t.Fatalf("ResetStats changed WaitPerPort length to %d", len(st.WaitPerPort))
	}
}

// TestArbiterGrantOrder pins each policy's decision on a fixed request
// pattern.
func TestArbiterGrantOrder(t *testing.T) {
	reqs := toLines([]bool{false, true, false, true})

	if got := NewFixedPriority().Grant(reqs, 3); got != 1 {
		t.Fatalf("fixed Grant = %d, want 1 (lowest requester)", got)
	}
	rr := NewRoundRobin()
	if got := rr.Grant(reqs, 1); got != 3 {
		t.Fatalf("rr Grant(last=1) = %d, want 3 (next requester after 1)", got)
	}
	if got := rr.Grant(reqs, 3); got != 1 {
		t.Fatalf("rr Grant(last=3) = %d, want 1 (wraps)", got)
	}
	if got := rr.Grant(reqs, -1); got != 1 {
		t.Fatalf("rr Grant(last=-1) = %d, want 1 (first scan from port 0)", got)
	}

	// FCFS: ports 1 and 3 arrive together (port-order tie-break), then 0
	// joins; 0 must wait behind both earlier arrivals.
	q := NewFCFSQueue()
	if got := q.Grant(toLines([]bool{false, true, false, true}), -1); got != 1 {
		t.Fatalf("fcfs first Grant = %d, want 1 (tie-break in port order)", got)
	}
	if got := q.Grant(toLines([]bool{true, false, false, true}), 1); got != 3 {
		t.Fatalf("fcfs second Grant = %d, want 3 (arrived before port 0)", got)
	}
	if got := q.Grant(toLines([]bool{true, false, false, false}), 3); got != 0 {
		t.Fatalf("fcfs third Grant = %d, want 0", got)
	}

	// Reset must forget queued arrivals.
	q.Grant(toLines([]bool{false, true, true, false}), -1) // grants 1, leaves 2 queued
	q.Reset()
	if got := q.Grant(toLines([]bool{true, false, true, false}), -1); got != 0 {
		t.Fatalf("fcfs Grant after Reset = %d, want 0 (queue cleared, port-order tie-break)", got)
	}
}

// TestFCFSDropsWithdrawnRequester: a queued port that stops requesting
// (its line was re-raised to wait out a backoff) must leave the queue
// rather than be granted while it may not arbitrate.
func TestFCFSDropsWithdrawnRequester(t *testing.T) {
	q := NewFCFSQueue()
	if got := q.Grant(toLines([]bool{true, true, false}), -1); got != 0 {
		t.Fatalf("Grant = %d, want 0", got)
	}
	// Port 1 (queued) withdraws; port 2 arrives.
	if got := q.Grant(toLines([]bool{false, false, true}), 0); got != 2 {
		t.Fatalf("Grant after withdrawal = %d, want 2", got)
	}
}

// TestArbiterRegistry covers name lookup.
func TestArbiterRegistry(t *testing.T) {
	for _, name := range ArbiterNames() {
		a, ok := NewArbiterByName(name)
		if !ok || a == nil {
			t.Fatalf("NewArbiterByName(%q) failed", name)
		}
		if a.Name() != name {
			t.Fatalf("NewArbiterByName(%q).Name() = %q", name, a.Name())
		}
	}
	if _, ok := NewArbiterByName("lottery"); ok {
		t.Fatal("NewArbiterByName accepted an unknown name")
	}
}

// TestBusBeyond64Ports runs a 130-port bus, whose request lines take
// three words, under each arbiter. Ports on both sides of the word
// boundaries raise their lines together; every one is granted once, and
// each port at 64 or above waits and is charged for it. The KindBusArb
// mask of the first, contended arbitration names only the waiting ports
// below 64, while its requester count includes the rest.
func TestBusBeyond64Ports(t *testing.T) {
	raise := []int{3, 63, 64, 65, 100, 127, 128, 129}
	for _, name := range ArbiterNames() {
		arb, _ := NewArbiterByName(name)
		clock := &sim.Clock{}
		b := New(clock, arb, newFlatMemory())
		var arbs []obs.Event
		b.SetTracer(obs.NewTracer(obs.ObserverFunc(func(e obs.Event) {
			if e.Kind == obs.KindBusArb {
				arbs = append(arbs, e)
			}
		})))
		inits := make([]*testInitiator, 130)
		for i := range inits {
			inits[i] = &testInitiator{}
			b.Attach(inits[i], nil, nil)
		}
		for _, p := range raise {
			inits[p].issue(MRead, Addr(p)<<4, 0)
		}
		run(b, clock, OpCycles*len(raise))
		st := b.Stats()
		var sum uint64
		for p, w := range st.WaitPerPort {
			sum += w
			raised := slices.Contains(raise, p)
			if n := len(inits[p].results); raised && n != 1 || !raised && n != 0 {
				t.Fatalf("%s: port %d completed %d operations", name, p, n)
			}
			if p >= 64 && raised && w == 0 {
				t.Fatalf("%s: port %d was granted without waiting: waits %v", name, p, st.WaitPerPort)
			}
		}
		if sum != st.WaitCycles {
			t.Fatalf("%s: WaitPerPort sums to %d, WaitCycles %d", name, sum, st.WaitCycles)
		}
		if len(arbs) == 0 {
			t.Fatalf("%s: no contended arbitration traced", name)
		}
		first := arbs[0]
		if first.Unit != 3 || first.A != uint64(len(raise)) || first.B != 1<<63 {
			t.Fatalf("%s: first KindBusArb granted %d of %d requesters, mask %#x; want port 3 of %d, mask %#x",
				name, first.Unit, first.A, first.B, len(raise), uint64(1)<<63)
		}
	}
}
