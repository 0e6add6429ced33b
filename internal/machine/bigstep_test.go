package machine

import (
	"testing"

	"firefly/internal/display"
	"firefly/internal/fault"
	"firefly/internal/obs"
	"firefly/internal/qbus"
	"firefly/internal/sim"
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
	eng.SetFaultInjector(m.Faults())
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

// TestNextEventSeesBusRequests pins the request-line contract the event
// scan rests on: nextEvent asks the bus, not the initiators, about
// raised requests, so the bus's lines must be exactly the requests the
// initiators hold. A machine with caches, a QBus DMA engine and disk, and
// the display controller steps in lockstep under a fault plan whose
// parity errors and timeouts send caches and DMA words into retry
// backoff. In every cycle, each port's line is up exactly while its
// initiator awaits the bus and its operation is not the one granted, and
// its first arbitration cycle is the expiry of the backoff traced since
// its last grant (0 without one). At every cycle the bus is idle, a
// request the bus would arbitrate next cycle must also bring the scan's
// event to the next cycle.
func TestNextEventSeesBusRequests(t *testing.T) {
	cfg := MicroVAXConfig(3)
	cfg.CacheLines, cfg.LineWords = 256, 2
	cfg.Faults = &fault.Config{BusParityRate: 0.02, BusTimeoutRate: 5e-3, DMAStallRate: 0.01}
	m := New(cfg)
	m.AttachSyntheticLoad(stdLoad)
	maps := &qbus.MapRegisters{}
	maps.MapRange(0, 0x40000, 1<<15)
	eng := qbus.NewEngine(m.Clock(), m.Bus(), maps, 0)
	eng.SetFaultInjector(m.Faults())
	disk := qbus.NewDisk(m.Clock(), m.Bus(), eng, qbus.DiskConfig{SeekCycles: 2_000})
	mdc := display.New(m.Clock(), m.Bus(), m.Memory(), display.Config{})
	m.AddDevice(eng)
	m.AddDevice(disk)
	m.AddDevice(mdc)

	// The initiators by port: the caches, then the engine and the MDC,
	// attached in that order.
	awaits := make([]func() bool, 0, len(m.Caches())+2)
	for _, c := range m.Caches() {
		awaits = append(awaits, c.AwaitsBus)
	}
	awaits = append(awaits, eng.AwaitsBus, mdc.AwaitsBus)
	dmaPort, mdcPort := eng.Port(), eng.Port()+1

	// The trace says which port's operation holds the bus and when each
	// port's retry backoff, if any since its last grant, expires.
	granted := -1
	retryAt := make([]sim.Cycle, len(awaits))
	m.Trace(obs.ObserverFunc(func(e obs.Event) {
		switch e.Kind {
		case obs.KindBusGrant:
			granted, retryAt[e.Unit] = int(e.Unit), 0
		case obs.KindBusOp, obs.KindFaultBusOp:
			granted = -1
		case obs.KindFaultRetry:
			retryAt[e.Unit] = sim.Cycle(e.Cycle + e.B)
		}
	}))

	// requesting counts the checked cycles at which each kind of
	// initiator had a request up for arbitration; backedOff the cycles at
	// which a cache's, the engine's or the MDC's raised line waited out a
	// backoff.
	var requesting struct{ cache, dma, mdc int }
	var backedOff struct{ cache, dma, mdc int }
	for phase := 0; phase < 8; phase++ {
		if phase == 4 {
			haltAll(m) // devices alone: their requests are no longer hidden behind the caches'
		}
		disk.Read(uint32(phase), 0, nil)
		disk.Write(uint32(phase+8), 0x800, nil)
		mdc.Submit(display.CmdBltFromMemory{R: display.Rect{X: 0, Y: 0, W: 64, H: 2}, Addr: 0x300000})
		mdc.Submit(display.CmdBltToMemory{R: display.Rect{X: 0, Y: 0, W: 64, H: 2}, Addr: 0x310000})
		for i := 0; i < 25_000; i++ {
			m.Step()
			now := m.Clock().Now()
			for p, awaiting := range awaits {
				at, up := m.Bus().Raised(p)
				if want := awaiting() && p != granted; up != want {
					t.Fatalf("cycle %d: port %d line up %v, its initiator holds a request %v (granted port %d)", now, p, up, want, granted)
				}
				if up && at != retryAt[p] {
					t.Fatalf("cycle %d: port %d line arbitrates from cycle %d, its traced backoff ends at %d", now, p, at, retryAt[p])
				}
				if up && at > now {
					switch {
					case p < dmaPort:
						backedOff.cache++
					case p == dmaPort:
						backedOff.dma++
					case p == mdcPort:
						backedOff.mdc++
					}
				}
			}
			if m.Bus().Busy() || m.Bus().NextEvent(now) > now+1 {
				continue
			}
			if ev := m.nextEvent(now); ev > now+1 {
				t.Fatalf("cycle %d: the bus has a request to arbitrate, but the event scan reports cycle %d", now, ev)
			}
			for p := range awaits {
				if at, up := m.Bus().Raised(p); !up || at > now+1 {
					continue
				}
				switch {
				case p < dmaPort:
					requesting.cache++
				case p == dmaPort:
					requesting.dma++
				case p == mdcPort:
					requesting.mdc++
				}
			}
		}
	}
	t.Logf("checked requests: cache %d, DMA %d, display %d; cycles backed off: cache %d, DMA %d, display %d",
		requesting.cache, requesting.dma, requesting.mdc, backedOff.cache, backedOff.dma, backedOff.mdc)
	if requesting.cache == 0 || requesting.dma == 0 || requesting.mdc == 0 {
		t.Fatalf("checked requests: cache %d, DMA %d, display %d; want all > 0", requesting.cache, requesting.dma, requesting.mdc)
	}
	if backedOff.cache == 0 || backedOff.dma == 0 || backedOff.mdc == 0 {
		t.Fatalf("cycles with a backed-off line: cache %d, DMA %d, display %d; want all > 0", backedOff.cache, backedOff.dma, backedOff.mdc)
	}
	var retries uint64
	for i := range m.Caches() {
		_, r := m.Bus().PortFaults(i)
		retries += r
	}
	_, dmaRetries := m.Bus().PortFaults(dmaPort)
	_, mdcRetries := m.Bus().PortFaults(mdcPort)
	if retries == 0 || dmaRetries == 0 || mdcRetries == 0 {
		t.Fatalf("cache retries %d, DMA retries %d, display retries %d; want all > 0", retries, dmaRetries, mdcRetries)
	}
}
