package rpc

import (
	"testing"

	"firefly/internal/machine"
)

// runUntil runs m in short chunks until cond holds, failing the test if
// it does not within limit cycles.
func runUntil(t *testing.T, m *machine.Machine, limit uint64, what string, cond func() bool) {
	t.Helper()
	for used := uint64(0); !cond(); used += 1000 {
		if used >= limit {
			t.Fatalf("%s: not within %d cycles", what, limit)
		}
		m.Run(1000)
	}
}

// threadInstructions sums the instructions every thread of n has run.
func threadInstructions(n *Node) uint64 {
	var sum uint64
	for _, th := range n.Kernel().Threads() {
		sum += th.Instructions
	}
	return sum
}

// TestIdleServerMakesNoSwitches: once its workers have blocked on the
// work condition variable, a server node with no calls switches no
// thread in, however long it runs; its processors only count idle
// instructions.
func TestIdleServerMakesNoSwitches(t *testing.T) {
	n := NewNode(machine.New(machine.MicroVAXConfig(2)), 0, dropMedium{}, NodeConfig{})
	if err := n.StartServer(); err != nil {
		t.Fatal(err)
	}
	m := n.Machine()
	runUntil(t, m, 1_000_000, "workers blocked", func() bool { return n.work.QueueLen() == n.cfg.Workers })
	before := n.Kernel().Stats()
	m.Run(2_000_000)
	after := n.Kernel().Stats()
	if sw := after.ContextSwitches - before.ContextSwitches; sw != 0 {
		t.Errorf("an idle server made %d context switches in 2M cycles", sw)
	}
	if after.IdleInstr <= before.IdleInstr {
		t.Errorf("idle instructions %d → %d, want growth", before.IdleInstr, after.IdleInstr)
	}
}

// TestArrivalWakesIdleWorker: a call that reaches an idle one-processor
// server is taken off the queue one context switch after it arrives.
// The bound, counted in kernel events rather than cycles: serverAccept's
// Notify readies the oldest waiting worker, the idle processor
// dispatches it at the next instruction boundary (at most one more idle
// instruction), the switch runs its SwitchCost kernel instructions, and
// the boundary after the worker's first instruction runs its program,
// which pops the call.
func TestArrivalWakesIdleWorker(t *testing.T) {
	m := machine.New(machine.MicroVAXConfig(1))
	n := NewNode(m, 0, dropMedium{}, NodeConfig{Workers: 2})
	if err := n.StartServer(); err != nil {
		t.Fatal(err)
	}
	runUntil(t, m, 1_000_000, "workers blocked", func() bool { return n.work.QueueLen() == 2 })

	msg := &Message{Kind: Call, ID: 1, Proc: DefaultProc, Payload: callPayload(1, 64)}
	buf, err := msg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range PackFrames(0, 1, 1, Call, buf) {
		n.Deliver(f)
	}
	k := n.Kernel()
	// Snapshot before each cycle, so the one that accepts the call is
	// counted even if its processor tick already dispatches the worker.
	before, instr := k.Stats(), threadInstructions(n)
	for i := 0; n.stats.CallsReceived.Value() == 0; i++ {
		if i == 100_000 {
			t.Fatal("call not accepted within 100k cycles")
		}
		before, instr = k.Stats(), threadInstructions(n)
		m.Step()
	}
	for i := 0; n.srvQueue.Len() > 0; i++ {
		if i == 100_000 {
			t.Fatal("call not popped within 100k cycles")
		}
		m.Step()
	}
	after := k.Stats()
	if sw := after.ContextSwitches - before.ContextSwitches; sw != 1 {
		t.Errorf("%d context switches between arrival and pop, want 1", sw)
	}
	if idle := after.IdleInstr - before.IdleInstr; idle > 1 {
		t.Errorf("%d idle instructions between arrival and pop, want at most 1", idle)
	}
	if ran := threadInstructions(n) - instr; ran != 1 {
		t.Errorf("workers ran %d instructions before the pop, want 1", ran)
	}
	if q := n.work.QueueLen(); q != 1 {
		t.Errorf("%d workers still waiting, want 1: one call wakes one worker", q)
	}
}

// TestFailedCallWakesCaller: on a wire that drops every frame, a caller's
// call runs out of retransmissions, and the failure itself wakes the
// caller, which issues its next call.
func TestFailedCallWakesCaller(t *testing.T) {
	m := machine.New(machine.MicroVAXConfig(2))
	n := NewNode(m, 0, dropMedium{}, NodeConfig{RetransmitCycles: 1000})
	if err := n.StartCallers(1, 1, 64); err != nil {
		t.Fatal(err)
	}
	// 1000·(2^(maxRetransmits+1) − 1) cycles of timeouts, plus the marshal.
	runUntil(t, m, 2_000_000, "first call failed", func() bool { return n.stats.CallsFailed.Value() == 1 })
	if r := n.stats.Retransmits.Value(); r != maxRetransmits {
		t.Errorf("%d retransmits before the failure, want %d", r, maxRetransmits)
	}
	// The next call costs one wake-up, the station's lock and the
	// marshal sleep (clientCycles), well under 50k cycles.
	runUntil(t, m, 50_000, "next call issued", func() bool { return n.stats.CallsIssued.Value() == 2 })
}
