package machine

import (
	"testing"

	"firefly/internal/fault"
	"firefly/internal/qbus"
	"firefly/internal/trace"
)

// snapDeviceRig builds a machine with the QBus DMA engine and disk
// attached, CPUs halted, a known sector loaded and a fault plan on the
// bus and the DMA path.
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

// TestStepZeroAllocsEventScan extends the hot-loop allocation contract
// to the big-step path: the event scan, the clock jumps and the
// processor-only ticks between bus operations must all run without
// allocating — while processors run on a quiet bus, while a
// device owns time (a disk mid-seek), and when the machine is fully
// quiescent.
func TestStepZeroAllocsEventScan(t *testing.T) {
	// Running processors with a low miss rate and a DMA engine attached:
	// the bus stays idle for most cycles, so each
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
