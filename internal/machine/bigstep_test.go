package machine

import (
	"fmt"
	"testing"

	"firefly/internal/coherence"
	"firefly/internal/fault"
	"firefly/internal/mbus"
	"firefly/internal/qbus"
	"firefly/internal/sim"
	"firefly/internal/trace"
)

// snapMachine builds the snapshot round-trip machine: synthetic load
// plus a correctable fault plan, so the snapshot has to carry RNG
// positions for every injection stream as well as the usual caches,
// counters, and source state.
func snapMachine(protoName string, seed uint64) *Machine {
	cfg := MicroVAXConfig(3)
	for _, p := range coherence.All() {
		if p.Name() == protoName {
			cfg.Protocol = p
		}
	}
	cfg.Seed = seed
	cfg.CacheLines = 256
	cfg.LineWords = 2
	cfg.Faults = &fault.Config{BusParityRate: 1e-4, MemSoftErrorRate: 1e-4}
	m := New(cfg)
	m.AttachSyntheticLoad(trace.SyntheticLoad{MissRate: 0.2, ShareFraction: 0.1, SharedReadFraction: 0.05})
	return m
}

// TestSnapshotRoundTrip pins the warm-start contract for every
// protocol: a snapshot restored into an identically built machine — or
// back into the original — continues bit-for-bit as an uninterrupted
// run would have. Table-driven over protocols and seeds.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, proto := range coherence.All() {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			t.Parallel()
			for _, seed := range []uint64{1, 9} {
				orig := snapMachine(proto.Name(), seed)
				orig.Warmup(20_000)
				snap, err := orig.Snapshot()
				if err != nil {
					t.Fatalf("seed %d: snapshot: %v", seed, err)
				}
				orig.Run(60_000)
				want := fmt.Sprint(orig.Report())

				clone := snapMachine(proto.Name(), seed)
				if err := clone.Restore(snap); err != nil {
					t.Fatalf("seed %d: restore into clone: %v", seed, err)
				}
				if got := clone.Clock().Now(); got != snap.Cycle() {
					t.Fatalf("seed %d: restored clock at %d, snapshot taken at %d", seed, got, snap.Cycle())
				}
				clone.Run(60_000)
				if got := fmt.Sprint(clone.Report()); got != want {
					t.Errorf("seed %d: warm-started clone diverged\n--- uninterrupted ---\n%s\n--- restored ---\n%s",
						seed, want, got)
				}

				// Rewind the original machine itself and replay: time-travel.
				if err := orig.Restore(snap); err != nil {
					t.Fatalf("seed %d: rewind: %v", seed, err)
				}
				orig.Run(60_000)
				if got := fmt.Sprint(orig.Report()); got != want {
					t.Errorf("seed %d: rewound replay diverged\n--- first run ---\n%s\n--- replay ---\n%s",
						seed, want, got)
				}
			}
		})
	}
}

// snapDeviceRig builds a machine with the QBus DMA engine and disk
// attached, CPUs halted, and a known sector loaded — the configuration
// where device snapshot state (pacing timer, sector store, counters)
// actually matters.
func snapDeviceRig() (*Machine, *qbus.Engine, *qbus.Disk) {
	cfg := MicroVAXConfig(2)
	cfg.Faults = &fault.Config{BusParityRate: 1e-4, DMAStallRate: 2e-3}
	m := New(cfg)
	haltAll(m)
	maps := &qbus.MapRegisters{}
	maps.MapRange(0, 0x40000, 1<<15)
	eng := qbus.NewEngine(m.Clock(), m.Bus(), maps, 0)
	pl := m.Faults()
	eng.SetFaultPolicy(pl, pl.MaxRetries(), pl.BackoffCycles())
	disk := qbus.NewDisk(m.Clock(), m.Bus(), eng, qbus.DiskConfig{SeekCycles: 5_000})
	sector := make([]uint32, qbus.SectorBytes/4)
	for i := range sector {
		sector[i] = uint32(0xA5A50000 + i)
	}
	disk.LoadSector(3, sector)
	m.AddDevice(eng)
	m.AddDevice(disk)
	return m, eng, disk
}

// TestSnapshotDeviceRoundTrip covers the device half of the snapshot:
// after a DMA prefix (which advances the engine's pacing timer and the
// fault plan's DMA stream), a restored clone must reproduce the
// original's subsequent transfers exactly — memory contents, media
// contents, and counters.
func TestSnapshotDeviceRoundTrip(t *testing.T) {
	followOn := func(m *Machine, disk *qbus.Disk) {
		disk.Read(3, 0, nil)      // media -> memory at phys 0x40000
		disk.Write(7, 0x200, nil) // memory -> lba 7
		m.Run(40_000)
	}
	image := func(m *Machine, eng *qbus.Engine, disk *qbus.Disk) string {
		words := make([]uint32, 8)
		for i := range words {
			words[i] = m.Memory().Peek(mbus.Addr(0x40000 + i*4))
		}
		return fmt.Sprintf("report=%v\nengine=%+v\ndisk=%+v\nlba7=%v\nmem=%v",
			m.Report(), eng.Stats(), disk.Stats(), disk.PeekSector(7)[:8], words)
	}

	orig, origEng, origDisk := snapDeviceRig()
	origDisk.Read(3, 0x1000, nil) // prefix transfer: non-trivial pacing and counters
	orig.Run(30_000)
	if origDisk.Busy() || origEng.NextEvent(orig.Clock().Now()) != sim.Never {
		t.Fatal("prefix transfer did not drain before the snapshot point")
	}
	snap, err := orig.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	followOn(orig, origDisk)
	want := image(orig, origEng, origDisk)

	clone, cloneEng, cloneDisk := snapDeviceRig()
	if err := clone.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	followOn(clone, cloneDisk)
	if got := image(clone, cloneEng, cloneDisk); got != want {
		t.Errorf("restored clone diverged\n--- original ---\n%s\n--- clone ---\n%s", want, got)
	}
}

// TestSnapshotRequiresIdleDevices pins the honesty contract: a device
// holding caller-owned completion closures refuses to snapshot rather
// than silently dropping them.
func TestSnapshotRequiresIdleDevices(t *testing.T) {
	m, _, disk := snapDeviceRig()
	disk.Read(3, 0, nil)
	if _, err := m.Snapshot(); err == nil {
		t.Fatal("snapshot succeeded with a disk command queued")
	}
	m.Run(40_000) // drain
	if _, err := m.Snapshot(); err != nil {
		t.Fatalf("snapshot of drained machine: %v", err)
	}
}

// TestRestoreShapeMismatch checks Restore rejects a snapshot from a
// differently shaped machine instead of half-applying it.
func TestRestoreShapeMismatch(t *testing.T) {
	small := New(MicroVAXConfig(2))
	snap, err := small.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	big := New(MicroVAXConfig(3))
	if err := big.Restore(snap); err == nil {
		t.Fatal("restore of a 2-CPU snapshot into a 3-CPU machine succeeded")
	}
	withDev, _, _ := snapDeviceRig()
	if err := withDev.Restore(snap); err == nil {
		t.Fatal("restore of a device-free snapshot into a machine with devices succeeded")
	}
}

// TestStepZeroAllocsEventScan extends the hot-loop allocation contract
// to the big-step path: the event scan, the bulk skip, the processor-only
// ticks between bus operations, and the CycleSkipper accounting must all
// run without allocating — while processors run on a quiet bus, while a
// device owns time (a disk mid-seek), and when the machine is fully
// quiescent.
func TestStepZeroAllocsEventScan(t *testing.T) {
	// Running processors with a low miss rate and a DMA engine attached
	// (a CycleSkipper): the bus stays idle for most cycles, so each
	// measured Run spends most of its time ticking only the processors.
	quiet := New(MicroVAXConfig(2))
	quiet.AttachSyntheticLoad(trace.SyntheticLoad{MissRate: 0.01})
	qmaps := &qbus.MapRegisters{}
	qmaps.MapRange(0, 0x40000, 1<<15)
	quiet.AddDevice(qbus.NewEngine(quiet.Clock(), quiet.Bus(), qmaps, 0))
	quiet.Warmup(20_000)
	avg := testing.AllocsPerRun(500, func() { quiet.Run(5_000) })
	if avg != 0 {
		t.Fatalf("running processors on a quiet bus allocate %.2f times per Run, want 0", avg)
	}
	if bs := quiet.Bus().Stats(); bs.BusyCycles*10 > bs.Cycles {
		t.Fatalf("bus busy %d of %d cycles: the measured Runs were not mostly quiet", bs.BusyCycles, bs.Cycles)
	}

	// A disk mid-seek with a horizon far beyond the measured window, so
	// every measured Run is pure scan+skip.
	long := New(MicroVAXConfig(2))
	long.AttachSyntheticLoad(stdLoad)
	maps := &qbus.MapRegisters{}
	maps.MapRange(0, 0x40000, 1<<15)
	eng := qbus.NewEngine(long.Clock(), long.Bus(), maps, 0)
	slowDisk := qbus.NewDisk(long.Clock(), long.Bus(), eng, qbus.DiskConfig{SeekCycles: 1 << 40})
	long.AddDevice(eng)
	long.AddDevice(slowDisk)
	long.Run(10_000)
	haltAll(long)
	slowDisk.Read(3, 0, nil)
	long.Run(16) // pick up the command and settle into the seek
	avg = testing.AllocsPerRun(500, func() { long.Run(5_000) })
	if avg != 0 {
		t.Fatalf("event scan over a seeking disk allocates %.2f times per Run, want 0", avg)
	}

	// Fully quiescent: the scan returns Never and Run covers the window
	// in one jump.
	m, _, _ := snapDeviceRig()
	m.Run(40_000)
	avg = testing.AllocsPerRun(500, func() { m.Run(100_000) })
	if avg != 0 {
		t.Fatalf("event scan of a quiescent machine allocates %.2f times per Run, want 0", avg)
	}
}
