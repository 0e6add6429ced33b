package mbus

import (
	"testing"

	"firefly/internal/sim"
)

// greedyInitiator always wants the bus: the saturating agent the
// starvation tests need. BusRequest stays side-effect-free; a grant just
// advances the address so back-to-back operations are distinct.
type greedyInitiator struct {
	addr   Addr
	grants int
}

func (g *greedyInitiator) BusRequest() (Request, bool) {
	return Request{Op: MRead, Addr: g.addr}, true
}

func (g *greedyInitiator) BusGrant() {
	g.grants++
	g.addr += 4
}

func (g *greedyInitiator) BusComplete(Result) {}

// saturate builds a bus with n always-requesting ports under the given
// arbiter, runs it, and returns per-port grant counts.
func saturate(t *testing.T, arb Arbiter, n, cycles int) []int {
	t.Helper()
	clock := &sim.Clock{}
	b := New(clock, arb)
	b.AttachMemory(newFlatMemory())
	inits := make([]*greedyInitiator, n)
	for i := range inits {
		inits[i] = &greedyInitiator{addr: Addr(i) << 20}
		b.Attach(inits[i], nil, nil)
	}
	run(b, clock, cycles)
	grants := make([]int, n)
	for i, g := range inits {
		grants[i] = g.grants
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
	b := New(clock, NewFixedPriority())
	b.AttachMemory(newFlatMemory())
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
	reqs := []bool{false, true, false, true}

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
	if got := q.Grant([]bool{false, true, false, true}, -1); got != 1 {
		t.Fatalf("fcfs first Grant = %d, want 1 (tie-break in port order)", got)
	}
	if got := q.Grant([]bool{true, false, false, true}, 1); got != 3 {
		t.Fatalf("fcfs second Grant = %d, want 3 (arrived before port 0)", got)
	}
	if got := q.Grant([]bool{true, false, false, false}, 3); got != 0 {
		t.Fatalf("fcfs third Grant = %d, want 0", got)
	}

	// Reset must forget queued arrivals.
	q.Grant([]bool{false, true, true, false}, -1) // grants 1, leaves 2 queued
	q.Reset()
	if got := q.Grant([]bool{true, false, true, false}, -1); got != 0 {
		t.Fatalf("fcfs Grant after Reset = %d, want 0 (queue cleared, port-order tie-break)", got)
	}
}

// TestFCFSDropsWithdrawnRequester: a queued port that stops requesting
// (its operation completed via another path, or the agent withdrew) must
// leave the queue rather than be granted while idle.
func TestFCFSDropsWithdrawnRequester(t *testing.T) {
	q := NewFCFSQueue()
	if got := q.Grant([]bool{true, true, false}, -1); got != 0 {
		t.Fatalf("Grant = %d, want 0", got)
	}
	// Port 1 (queued) withdraws; port 2 arrives.
	if got := q.Grant([]bool{false, false, true}, 0); got != 2 {
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
