package cluster

import (
	"runtime"
	"testing"
)

// TestCallPathAllocs bounds the host allocations of the RPC call path
// once a cluster is warm: a call, its reply and their trip through the
// DEQNAs, the wire and, bridged, the bridge cost the transmit DMA's word
// buffer per frame (two per call) and nothing else, averaged over at
// least 200 calls.
func TestCallPathAllocs(t *testing.T) {
	for _, tc := range []struct {
		name     string
		machines int
		segments int
		pairs    [][2]int // caller node, server node
	}{
		{"two machines", 2, 1, [][2]int{{0, 1}}},
		// Segments {0,1}, {2,3}, {4,5}: every call crosses the bridge.
		{"bridged", 6, 3, [][2]int{{0, 5}, {2, 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := New(Config{Machines: tc.machines, Segments: tc.segments, Workers: 1, Node: quickNode(), Seed: 5})
			for _, p := range tc.pairs {
				if err := cl.Node(p[1]).StartServer(); err != nil {
					t.Fatal(err)
				}
				if err := cl.Node(p[0]).StartCallers(3, p[1], 64); err != nil {
					t.Fatal(err)
				}
			}
			completed := func() uint64 {
				var n uint64
				for _, p := range tc.pairs {
					n += cl.Node(p[0]).Stats().CallsCompleted.Value()
				}
				return n
			}
			cl.Run(2_000_000)
			if completed() < 50 {
				t.Fatalf("only %d calls completed while warming", completed())
			}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			allocs, calls := ms.Mallocs, completed()
			cl.Run(4_000_000)
			runtime.ReadMemStats(&ms)
			allocs, calls = ms.Mallocs-allocs, completed()-calls
			if calls < 200 {
				t.Fatalf("only %d calls completed in the measured run, want at least 200", calls)
			}
			if per := float64(allocs) / float64(calls); per > 3 {
				t.Errorf("%d allocations over %d calls: %.2f per call, want at most 3", allocs, calls, per)
			} else {
				t.Logf("%d allocations over %d calls: %.2f per call", allocs, calls, per)
			}
		})
	}
}
