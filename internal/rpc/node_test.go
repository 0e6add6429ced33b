package rpc

import (
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
