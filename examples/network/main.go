// Network: two Fireflies on one Ethernet. SRC's world was "distributed
// personal computing": workstations speaking RPC over the wire. This
// example builds a two-machine cluster, starts the RPC server on one
// Firefly, and issues a single 1 KB call from the other. The request is
// marshalled into the client's memory, DMA'd out through its DEQNA,
// serialized on the shared 10 Mbit/s segment, DMA'd into the server's
// memory and served by a Topaz worker thread; the reply takes the same
// path back.
package main

import (
	"fmt"

	"firefly/internal/cluster"
	"firefly/internal/rpc"
)

func main() {
	cl := cluster.New(cluster.Config{})
	if err := cl.Node(1).StartServer(); err != nil {
		panic(err)
	}

	var out *rpc.CallOutcome
	cl.Node(0).Issue(1, 1024, rpc.DefaultProc, func(o rpc.CallOutcome) { out = &o })
	if !cl.RunUntil(func() bool { return out != nil }, 10_000_000) {
		panic("network: no reply within one simulated second")
	}
	if out.Shed || out.Failed {
		panic(fmt.Sprintf("network: call did not complete: %+v", *out))
	}

	fmt.Printf("machine 0 -> machine 1: %d-byte call (proc %d)\n", out.Bytes, rpc.DefaultProc)
	fmt.Printf("round trip: %.1f µs simulated (DMA, wire and server work both ways)\n",
		rpc.CyclesToUS(uint64(out.Latency)))
	seg := cl.Segment().Stats()
	fmt.Printf("segment: %d frames, %d words on the wire\n",
		seg.Frames.Value(), seg.WordsOnWire.Value())
	for i := 0; i < cl.Size(); i++ {
		fmt.Printf("machine %d bus ops: %d\n", i, cl.Machine(i).Bus().Stats().TotalOps())
	}
}
