package rpc

import (
	"bytes"
	"slices"
	"testing"

	"firefly/internal/machine"
	"firefly/internal/qbus"
)

// dropMedium is a wire that carries nothing.
type dropMedium struct{}

func (dropMedium) Transmit(_ qbus.Packet, done func(ok bool)) { done(false) }

// TestThreadsNeedRoomBelowNICBuffers: every caller or server thread gets
// its own Topaz address space, and a node has room for 13 of them below
// its NIC buffers on the default machine. The 14th would overlap the
// transmit ring, so StartCallers and StartServer refuse such a pool
// whole and fork nothing.
func TestThreadsNeedRoomBelowNICBuffers(t *testing.T) {
	newNode := func(workers int) *Node {
		return NewNode(machine.New(machine.MicroVAXConfig(2)), 0, dropMedium{}, NodeConfig{Workers: workers})
	}
	if err := newNode(0).StartCallers(13, 1, 0); err != nil {
		t.Fatalf("13 callers refused: %v", err)
	}
	n := newNode(0)
	if err := n.StartCallers(14, 1, 0); err == nil {
		t.Fatal("14 callers accepted")
	}
	if got := len(n.Kernel().Threads()); got != 0 {
		t.Fatalf("a refused StartCallers forked %d threads", got)
	}
	if err := newNode(13).StartServer(); err != nil {
		t.Fatalf("13 workers refused: %v", err)
	}
	if err := newNode(14).StartServer(); err == nil {
		t.Fatal("14 workers accepted")
	}
	n = newNode(0)
	if err := n.StartServer(); err != nil {
		t.Fatal(err)
	}
	if err := n.StartCallers(10, 1, 0); err == nil {
		t.Fatal("4 workers and 10 callers accepted on one node")
	}
}

// TestShedDuplicateGetsSameRejection: a call shed by admission control
// is answered with a ShedProc rejection, and a retransmitted copy of it
// (its reply lost on the wire) gets the identical rejection again, not
// the call's own procedure; a duplicate of a call still queued is
// absorbed without a reply.
func TestShedDuplicateGetsSameRejection(t *testing.T) {
	med := &captureMedium{}
	n := NewNode(machine.New(machine.MicroVAXConfig(1)), 0, med, NodeConfig{MaxQueue: 1})
	deliver := func(id uint32) {
		buf, err := (&Message{Kind: Call, ID: id, Proc: DefaultProc, Payload: callPayload(id, 64)}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range PackFrames(0, 1, id, Call, buf) {
			n.Deliver(f)
		}
		for i := 0; n.eth.Busy(); i++ {
			if i == 1000 {
				t.Fatal("DEQNA still busy after 1M cycles")
			}
			n.m.Run(1000)
		}
	}
	deliver(1) // queued: no worker serves it
	deliver(2) // the queue is at its bound: shed
	if len(med.sent) != 1 {
		t.Fatalf("%d frames sent after a queued and a shed call, want the one rejection", len(med.sent))
	}
	fr, data, err := parseFrag(med.sent[0])
	if err != nil {
		t.Fatal(err)
	}
	rej, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if fr.dst != 1 || rej.Kind != Reply || rej.ID != 2 || rej.Proc != ShedProc || !bytes.Equal(rej.Payload, callPayload(2^0xabcd, 4)) {
		t.Fatalf("rejection to %d: %+v", fr.dst, rej)
	}
	deliver(2)
	if len(med.sent) != 2 || !slices.Equal(med.sent[1], med.sent[0]) {
		t.Fatalf("the shed call's duplicate was answered with %x, want the rejection %x", med.sent[1:], med.sent[0])
	}
	deliver(1)
	if len(med.sent) != 2 {
		t.Fatalf("a duplicate of the queued call was answered: %x", med.sent[2:])
	}
	if st := n.Stats(); st.DupCalls.Value() != 2 || st.CallsShed.Value() != 1 || st.CallsReceived.Value() != 1 {
		t.Fatalf("dup %d shed %d received %d, want 2, 1, 1", st.DupCalls.Value(), st.CallsShed.Value(), st.CallsReceived.Value())
	}
}

// TestIssueFromOnDoneIsTracked: a call issued from a failed call's onDone
// joins the retransmit timer list. On a wire that drops everything it is
// retransmitted and fails on its own budget, after which no call is
// outstanding and no timer is left.
func TestIssueFromOnDoneIsTracked(t *testing.T) {
	m := machine.New(machine.MicroVAXConfig(2))
	n := NewNode(m, 0, dropMedium{}, NodeConfig{RetransmitCycles: 1000})
	var outcomes []CallOutcome
	var second uint32
	first := n.Issue(1, 64, DefaultProc, func(o CallOutcome) {
		outcomes = append(outcomes, o)
		second = n.Issue(1, 64, DefaultProc, func(o CallOutcome) { outcomes = append(outcomes, o) })
	})
	// Each call's budget is 1000·(2^(maxRetransmits+1) − 1) cycles.
	runUntil(t, m, 5_000_000, "both calls settled", func() bool { return len(outcomes) == 2 })
	for i, id := range []uint32{first, second} {
		if o := outcomes[i]; o.ID != id || !o.Failed {
			t.Errorf("outcome %d: %+v, want call %d failed", i, o, id)
		}
	}
	if lat := outcomes[1].Latency; lat < 1000*(1<<(maxRetransmits+1)-1) {
		t.Errorf("the second call failed after %d cycles, before its own budget", lat)
	}
	if r := n.stats.Retransmits.Value(); r != 2*maxRetransmits {
		t.Errorf("%d retransmits, want %d", r, 2*maxRetransmits)
	}
	if f := n.stats.CallsFailed.Value(); f != 2 {
		t.Errorf("%d calls failed, want 2", f)
	}
	if o, timers := n.Outstanding(), len(n.calls); o != 0 || timers != 0 {
		t.Errorf("%d calls outstanding and %d timers left, want none", o, timers)
	}
}
