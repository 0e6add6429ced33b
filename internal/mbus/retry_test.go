package mbus

import (
	"slices"
	"testing"

	"firefly/internal/obs"
	"firefly/internal/sim"
)

// retryLog records, per port, the cycles the bus granted an operation
// and the fault.retry events it emitted.
type retryLog struct {
	grants  map[int][]sim.Cycle
	retries []obs.Event
}

func watchRetries(b *Bus) *retryLog {
	l := &retryLog{grants: map[int][]sim.Cycle{}}
	b.SetTracer(obs.NewTracer(obs.ObserverFunc(func(e obs.Event) {
		switch e.Kind {
		case obs.KindBusGrant:
			l.grants[int(e.Unit)] = append(l.grants[int(e.Unit)], sim.Cycle(e.Cycle))
		case obs.KindFaultRetry:
			l.retries = append(l.retries, e)
		}
	})))
	return l
}

// runUntilResults steps the bus until the initiator holds n results.
func runUntilResults(t *testing.T, b *Bus, clock *sim.Clock, a *testInitiator, n int) {
	t.Helper()
	for i := 0; len(a.results) < n; i++ {
		if i == 1000 {
			t.Fatalf("no result %d within 1000 cycles (have %d)", n, len(a.results))
		}
		run(b, clock, 1)
	}
}

// TestBusRetriesFaultedOps pins the bus's retry policy with a budget of
// 3 and a base backoff of 5 cycles: a faulted operation arbitrates again
// exactly 5, then 10, then 20 cycles after its faults, its initiator is
// handed one result per operation (clean, or the fault that spent the
// budget), and each port counts its retries apart from the others'.
func TestBusRetriesFaultedOps(t *testing.T) {
	const maxRetries, backoff = 3, 5

	t.Run("fewer faults than the budget", func(t *testing.T) {
		b, clock, mem := newTestBus()
		a := &testInitiator{}
		b.Attach(a, nil, nil)
		b.SetFaultPolicy(&scriptedInjector{faults: []FaultKind{FaultParity, FaultParity}}, maxRetries, backoff)
		log := watchRetries(b)

		a.issue(MWrite, 0x100, 42)
		run(b, clock, OpCycles) // the first attempt faults in cycle 4
		if len(a.results) != 0 {
			t.Fatalf("a retried operation was handed a result: %+v", a.results)
		}
		if at, up := b.Raised(0); !up || at != clock.Now()+backoff {
			t.Fatalf("after the fault at cycle %d: line up %v from %d, want up from %d", clock.Now(), up, at, clock.Now()+backoff)
		}
		runUntilResults(t, b, clock, a, 1)
		// Granted at 1, faults at 4; again at 4+5, faults at 12; again at
		// 12+10, completes at 25.
		if want := []sim.Cycle{1, 9, 22}; !slices.Equal(log.grants[0], want) {
			t.Fatalf("grants at %v, want %v", log.grants[0], want)
		}
		if r := a.results[0]; r.Fault != FaultNone || r.Done != 25 || mem.words[0x100] != 42 {
			t.Fatalf("result %+v, memory %d; want a clean write at cycle 25", r, mem.words[0x100])
		}
		run(b, clock, 50)
		if len(a.results) != 1 {
			t.Fatalf("%d results for one operation, want 1", len(a.results))
		}
		if p := b.PortStats(0); p.Faults != 2 || p.Retries != 2 {
			t.Fatalf("port faults/retries = %d/%d, want 2/2", p.Faults, p.Retries)
		}
		for i, e := range log.retries {
			if e.Unit != 0 || e.A != uint64(i+1) || e.B != backoff<<i || e.Addr != 0x100 || e.Label != "" {
				t.Fatalf("retry event %d = %+v, want unit 0, attempt %d, backoff %d, addr 0x100, no label", i, e, i+1, backoff<<i)
			}
		}
	})

	t.Run("budget spent, then the count starts afresh", func(t *testing.T) {
		b, clock, mem := newTestBus()
		a := &testInitiator{}
		b.Attach(a, nil, nil)
		inj := &scriptedInjector{faults: []FaultKind{FaultParity, FaultParity, FaultNone}}
		b.SetFaultPolicy(inj, maxRetries, backoff)
		log := watchRetries(b)

		// Two faults and a clean completion: the count goes back to 0, so
		// the next operation has the whole budget.
		a.issue(MWrite, 0x100, 1)
		runUntilResults(t, b, clock, a, 1)
		inj.faults = []FaultKind{FaultParity, FaultTimeout, FaultParity, FaultParity, FaultNone}
		inj.hold = 2
		start := clock.Now()
		a.issue(MWrite, 0x104, 2)
		runUntilResults(t, b, clock, a, 2)
		// Granted at s+1, faults at s+4; again at s+9, times out at s+14;
		// again at s+24, faults at s+27; again at s+47, faults at s+50 and
		// is handed over.
		want := []sim.Cycle{start + 1, start + 9, start + 24, start + 47}
		if got := log.grants[0][3:]; !slices.Equal(got, want) {
			t.Fatalf("grants at %v, want %v", got, want)
		}
		if r := a.results[1]; r.Fault != FaultParity || r.Done != start+50 || mem.words[0x104] != 0 {
			t.Fatalf("result %+v, memory %d; want the last parity fault at cycle %d and no write", r, mem.words[0x104], start+50)
		}
		if _, up := b.Raised(0); up {
			t.Fatal("an abandoned operation left its line up")
		}
		if got := log.retries[2:]; len(got) != 3 || got[0].A != 1 || got[1].A != 2 || got[2].A != 3 || got[2].B != 20 {
			t.Fatalf("retries of the second operation %+v, want attempts 1-3 with the last backing off 20", got)
		}
		if p := b.PortStats(0); p.Faults != 6 || p.Retries != 5 {
			t.Fatalf("port faults/retries = %d/%d, want 6/5", p.Faults, p.Retries)
		}

		// After the budget was spent the count starts afresh too.
		inj.faults = []FaultKind{FaultParity}
		a.issue(MWrite, 0x108, 3)
		runUntilResults(t, b, clock, a, 3)
		if r := a.results[2]; r.Fault != FaultNone || mem.words[0x108] != 3 {
			t.Fatalf("result %+v after an abandon, want a clean retry", r)
		}
		if e := log.retries[len(log.retries)-1]; e.A != 1 || e.B != backoff {
			t.Fatalf("first retry after an abandon %+v, want attempt 1 backing off %d", e, backoff)
		}
	})

	t.Run("interleaved ports", func(t *testing.T) {
		b, clock, _ := newTestBus()
		a, c := &testInitiator{}, &testInitiator{}
		b.Attach(a, nil, nil)
		b.Attach(c, nil, nil)
		b.SetFaultPolicy(&scriptedInjector{faults: []FaultKind{FaultParity, FaultParity, FaultParity}}, maxRetries, backoff)
		log := watchRetries(b)

		a.issue(MWrite, 0x200, 7)
		c.issue(MWrite, 0x300, 8)
		run(b, clock, 40)
		// Port 0 faults at 4 and retries at 9; port 1, granted at 5,
		// faults at 8 and retries at 13; port 0 faults again at 12 and
		// retries at 22, while port 1's retry completes at 16.
		if want := []sim.Cycle{1, 9, 22}; !slices.Equal(log.grants[0], want) {
			t.Fatalf("port 0 grants at %v, want %v", log.grants[0], want)
		}
		if want := []sim.Cycle{5, 13}; !slices.Equal(log.grants[1], want) {
			t.Fatalf("port 1 grants at %v, want %v", log.grants[1], want)
		}
		if len(a.results) != 1 || a.results[0].Fault != FaultNone || len(c.results) != 1 || c.results[0].Fault != FaultNone {
			t.Fatalf("results %+v and %+v, want one clean result each", a.results, c.results)
		}
		var attempts [2][]uint64
		for _, e := range log.retries {
			attempts[e.Unit] = append(attempts[e.Unit], e.A)
		}
		if len(attempts[0]) != 2 || attempts[0][1] != 2 || len(attempts[1]) != 1 || attempts[1][0] != 1 {
			t.Fatalf("retry attempts by port %v, want [1 2] and [1]", attempts)
		}
		st := b.Stats()
		if st.FaultsPerPort[0] != 2 || st.RetriesPerPort[0] != 2 || st.FaultsPerPort[1] != 1 || st.RetriesPerPort[1] != 1 {
			t.Fatalf("faults %v, retries %v per port, want [2 1] and [2 1]", st.FaultsPerPort, st.RetriesPerPort)
		}
		b.ResetStats()
		if p := b.PortStats(0); p.Faults != 0 || p.Retries != 0 {
			t.Fatalf("after ResetStats port 0 reads %d faults, %d retries", p.Faults, p.Retries)
		}
	})

	t.Run("uncorrectable ECC read", func(t *testing.T) {
		clock := &sim.Clock{}
		mem := newFlatMemory()
		mem.words[0x300], mem.badReads = 99, 1
		b := New(clock, nil, mem)
		a := &testInitiator{}
		b.Attach(a, nil, nil)
		b.SetFaultPolicy(nil, maxRetries, backoff)
		log := watchRetries(b)

		a.issue(MRead, 0x300, 0)
		runUntilResults(t, b, clock, a, 1)
		if r := a.results[0]; r.Fault != FaultNone || r.Data != 99 || r.Done != 4+backoff+3 {
			t.Fatalf("result %+v, want a clean re-read of 99 at cycle %d", r, 4+backoff+3)
		}
		if want := []sim.Cycle{1, 4 + backoff}; !slices.Equal(log.grants[0], want) {
			t.Fatalf("grants at %v, want %v", log.grants[0], want)
		}
		// The faulted read ran on the bus, so both reads count as operations.
		if st := b.Stats(); st.Ops[MRead] != 2 || st.FaultsPerPort[0] != 1 || st.RetriesPerPort[0] != 1 {
			t.Fatalf("%d reads, %d faults, %d retries; want 2, 1, 1", st.Ops[MRead], st.FaultsPerPort[0], st.RetriesPerPort[0])
		}
	})
}
