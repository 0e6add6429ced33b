package machine

import "testing"

// TestRegistryReadsAllocateNothing: reading a bus counter through the
// registry copies nothing, per-port counters included, so a snapshot
// allocates only its own result.
func TestRegistryReadsAllocateNothing(t *testing.T) {
	m := New(MicroVAXConfig(10))
	for i := 0; i < 10; i++ {
		m.CPU(i).Halt()
	}
	m.Run(20_000)
	r := m.Registry()
	for _, name := range []string{"bus.cycles", "bus.ops.total", "bus.ops.mread", "bus.port9.ops", "bus.port9.wait_cycles", "bus.faulted_ops"} {
		if a := testing.AllocsPerRun(100, func() { r.MustValue(name) }); a != 0 {
			t.Errorf("MustValue(%q) allocates %.1f times", name, a)
		}
	}
	if a := testing.AllocsPerRun(20, func() { r.Snapshot() }); a > 2 {
		t.Errorf("Snapshot of %d counters allocates %.1f times, want at most 2 (names and result)", r.Len(), a)
	}
}
