package machine

import (
	"testing"

	"firefly/internal/coherence"
	"firefly/internal/fault"
	"firefly/internal/qbus"
	"firefly/internal/sim"
	"firefly/internal/trace"
)

// TestSnoopProbeAccounting pins the tag-store probe count: every
// completed bus operation probes every cache but its initiator's, and a
// faulted one probes none, so cache i's SnoopProbes is the bus's
// completed operations less those cache i initiated. The bus asks only
// the caches that may hold the line, but counts the probe in every tag
// store and latches its cycle there, which a stepped stretch checks cycle
// by cycle. The machines run without Warmup (a reset between an
// operation's probe and its completion would split it) and are stepped
// until the bus is idle, so no operation is probed but not yet counted.
func TestSnoopProbeAccounting(t *testing.T) {
	load := trace.SyntheticLoad{MissRate: 0.2, ShareFraction: 0.3, SharedReadFraction: 0.5}
	check := func(t *testing.T, m *Machine) {
		t.Helper()
		m.Run(40_000)
		caches := m.Caches()
		probes := make([]uint64, len(caches))
		latched := make([]sim.Cycle, len(caches))
		for i := 0; i < 5_000 || m.Bus().Busy(); i++ {
			for j, c := range caches {
				probes[j], latched[j] = c.Stats().SnoopProbes, c.TagStore().LastProbed
			}
			m.Step()
			now := m.Clock().Now()
			for j, c := range caches {
				want := latched[j]
				if n := c.Stats().SnoopProbes - probes[j]; n > 1 {
					t.Fatalf("cycle %d: cache %d counted %d probes in one cycle", now, j, n)
				} else if n == 1 {
					want = now
				}
				if got := c.TagStore().LastProbed; got != want {
					t.Fatalf("cycle %d: cache %d latched cycle %d, want %d", now, j, got, want)
				}
			}
		}
		bs := m.Bus().Stats()
		for i, c := range m.Caches() {
			if got, want := c.Stats().SnoopProbes, bs.TotalOps()-bs.PerPort[i]; got != want {
				t.Errorf("cache %d: %d snoop probes, want %d (%d ops, %d its own)", i, got, want, bs.TotalOps(), bs.PerPort[i])
			}
		}
		var hits uint64
		for _, c := range m.Caches() {
			hits += c.Stats().SnoopHits
		}
		if hits == 0 {
			t.Error("no snoop hit: the load shares nothing")
		}
	}

	for _, proto := range coherence.All() {
		t.Run(proto.Name(), func(t *testing.T) {
			cfg := MicroVAXConfig(6)
			cfg.Protocol = proto
			m := New(cfg)
			m.AttachSyntheticLoad(load)
			check(t, m)
		})
	}

	t.Run("dma", func(t *testing.T) {
		m := New(MicroVAXConfig(6))
		m.AttachSyntheticLoad(load)
		maps := &qbus.MapRegisters{}
		maps.MapRange(0, 0x40000, 1<<15)
		eng := qbus.NewEngine(m.Clock(), m.Bus(), maps, 0)
		disk := qbus.NewDisk(m.Clock(), m.Bus(), eng, qbus.DiskConfig{SeekCycles: 2_000})
		m.AddDevice(eng)
		m.AddDevice(disk)
		for i := uint32(0); i < 4; i++ {
			disk.Read(i, 0, nil)
			disk.Write(i+8, 0x800, nil)
		}
		check(t, m)
		if bs := m.Bus().Stats(); bs.PerPort[len(m.Caches())] == 0 {
			t.Error("the DMA engine made no bus operation")
		}
	})

	t.Run("faults", func(t *testing.T) {
		cfg := MicroVAXConfig(6)
		cfg.CacheLines, cfg.LineWords = 256, 2
		cfg.Faults = &fault.Config{
			BusParityRate:            0.02,
			BusTimeoutRate:           0.01,
			TimeoutHoldCycles:        40,
			MemSoftErrorRate:         0.05,
			MemUncorrectableFraction: 0.5,
			MaxRetries:               2,
			BackoffCycles:            8,
		}
		m := New(cfg)
		m.AttachSyntheticLoad(load)
		check(t, m)
		fs := m.Faults().Stats()
		if fs.BusParity.Value() == 0 || fs.BusTimeouts.Value() == 0 || fs.MemUncorrect.Value() == 0 {
			t.Errorf("injected %d parity errors, %d timeouts, %d uncorrectable ECC errors; want all > 0",
				fs.BusParity.Value(), fs.BusTimeouts.Value(), fs.MemUncorrect.Value())
		}
		if m.Bus().Stats().FaultedOps == 0 {
			t.Error("no faulted bus operation")
		}
	})
}
