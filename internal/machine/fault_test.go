package machine

import (
	"bytes"
	"testing"

	"firefly/internal/display"
	"firefly/internal/fault"
	"firefly/internal/mbus"
	"firefly/internal/obs"
	"firefly/internal/qbus"
)

// faultRun executes a traced machine and returns (report text, trace
// bytes, fault injection total).
func faultRun(t *testing.T, fcfg *fault.Config, cycles uint64) (string, []byte, uint64) {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	cfg := MicroVAXConfig(3)
	cfg.Seed = 7
	cfg.Faults = fcfg
	m := New(cfg)
	m.Trace(sink)
	m.AttachSyntheticLoad(stdLoad)
	m.Run(cycles)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	var total uint64
	if p := m.Faults(); p != nil {
		total = p.Stats().Total()
	}
	return m.Report().String(), buf.Bytes(), total
}

// TestZeroRatePlanByteIdentical is the differential contract: a fault
// plan whose rates are all zero must be behaviourally indistinguishable
// from no plan at all — same report text, byte-identical trace stream.
// This pins the no-draw property (a zero sim.Chance consumes nothing) and
// guarantees the injector hooks have zero architectural footprint.
func TestZeroRatePlanByteIdentical(t *testing.T) {
	repNone, traceNone, _ := faultRun(t, nil, 30_000)
	repZero, traceZero, injected := faultRun(t, &fault.Config{}, 30_000)
	if injected != 0 {
		t.Fatalf("zero-rate plan injected %d faults", injected)
	}
	if repNone != repZero {
		t.Fatalf("reports diverge:\n--- no plan ---\n%s\n--- zero-rate plan ---\n%s", repNone, repZero)
	}
	if !bytes.Equal(traceNone, traceZero) {
		t.Fatalf("traces diverge (%d vs %d bytes)", len(traceNone), len(traceZero))
	}
}

// TestFaultRunDeterministic: one seed, one plan, one fault storm — two
// runs must agree byte for byte, injections and recoveries included.
func TestFaultRunDeterministic(t *testing.T) {
	fcfg := &fault.Config{
		BusParityRate:    1e-3,
		BusTimeoutRate:   1e-3,
		MemSoftErrorRate: 1e-3,
		TagParityRate:    1e-3,
	}
	rep1, trace1, inj1 := faultRun(t, fcfg, 30_000)
	rep2, trace2, inj2 := faultRun(t, fcfg, 30_000)
	if inj1 == 0 {
		t.Fatal("plan injected nothing; the determinism check is vacuous")
	}
	if inj1 != inj2 {
		t.Fatalf("injection totals diverge: %d vs %d", inj1, inj2)
	}
	if rep1 != rep2 {
		t.Fatal("same plan + seed produced different reports")
	}
	if !bytes.Equal(trace1, trace2) {
		t.Fatalf("same plan + seed produced different traces (%d vs %d bytes)", len(trace1), len(trace2))
	}

	// A different plan seed must perturb the storm.
	with := *fcfg
	with.Seed = 999
	_, trace3, _ := faultRun(t, &with, 30_000)
	if bytes.Equal(trace1, trace3) {
		t.Fatal("different plan seeds produced identical traces")
	}
}

// TestFaultedRunsRecover pins the recovery accounting end to end: under
// a correctable storm the machine keeps executing, retries happen, and
// every fault class that was enabled actually fired.
func TestFaultedRunsRecover(t *testing.T) {
	cfg := MicroVAXConfig(4)
	cfg.Seed = 11
	cfg.Faults = &fault.Config{
		BusParityRate:    5e-3,
		MemSoftErrorRate: 5e-3,
		TagParityRate:    5e-3,
	}
	m := New(cfg)
	m.AttachSyntheticLoad(stdLoad)
	m.Run(100_000)

	fs := m.Faults().Stats()
	if fs.BusParity.Value() == 0 || fs.MemSoft.Value() == 0 || fs.TagParity.Value() == 0 {
		t.Fatalf("fault classes silent: %d/%d/%d",
			fs.BusParity.Value(), fs.MemSoft.Value(), fs.TagParity.Value())
	}
	var retries, instr uint64
	for i := 0; i < 4; i++ {
		retries += m.Bus().PortStats(i).Retries
		instr += m.CPU(i).Stats().Instructions
	}
	if retries == 0 {
		t.Fatal("no bus-fault retries despite parity injection")
	}
	if instr == 0 {
		t.Fatal("machine made no progress under correctable faults")
	}
	if m.Memory().ECCStats().Corrected == 0 {
		t.Fatal("ECC corrected nothing despite soft-error injection")
	}
	if m.Memory().ECCStats().Uncorrectable != 0 {
		t.Fatal("uncorrectable errors with a zero uncorrectable fraction")
	}
	// Registry names resolve for every fault counter.
	for _, name := range []string{
		"fault.bus_parity", "fault.mem_soft", "fault.tag_parity",
		"bus.faulted_ops", "mem.ecc_corrected", "cache0.retries",
		"cache0.machine_checks",
	} {
		m.Registry().MustValue(name)
	}
}

// TestRegistryFaultAndRetryCounters checks that cacheN.bus_faults
// and cacheN.retries read the bus's per-port records, and agree with the
// slices of Bus.Stats. The two counts differ only where an operation
// spends its retry budget, so the plan makes some do.
func TestRegistryFaultAndRetryCounters(t *testing.T) {
	cfg := MicroVAXConfig(2)
	cfg.Faults = &fault.Config{BusParityRate: 0.2, MaxRetries: 1}
	m := New(cfg)
	m.AttachSyntheticLoad(stdLoad)
	m.Run(20_000)
	st := m.Bus().Stats()
	for i := 0; i < 2; i++ {
		faults := m.Registry().MustValue(fmtName("cache", i, "bus_faults"))
		retries := m.Registry().MustValue(fmtName("cache", i, "retries"))
		if faults != st.FaultsPerPort[i] || retries != st.RetriesPerPort[i] {
			t.Fatalf("cache%d: registry reads %d faults, %d retries; bus stats %d, %d",
				i, faults, retries, st.FaultsPerPort[i], st.RetriesPerPort[i])
		}
		if faults == retries {
			t.Fatalf("cache%d: %d faults, all retried; the check covers nothing", i, faults)
		}
	}
}

// TestUncorrectableECCReachesInitiator: when every storage read is an
// uncorrectable ECC error, each retry of a memory-sourced read faults
// again, so the bus spends the plan's retry budget (MaxRetries 0 keeps
// the default) and hands the fault to the cache, which abandons the
// access and latches a machine check. A bus that delivered the zeroed
// word as clean data would latch none.
func TestUncorrectableECCReachesInitiator(t *testing.T) {
	cfg := MicroVAXConfig(2)
	cfg.Faults = &fault.Config{MemSoftErrorRate: 1, MemUncorrectableFraction: 1}
	m := New(cfg)
	m.AttachSyntheticLoad(stdLoad)
	m.Run(20_000)
	r := m.Registry()
	if n := r.MustValue("mem.ecc_uncorrectable"); n == 0 {
		t.Fatal("no uncorrectable ECC error was raised")
	}
	for i := 0; i < 2; i++ {
		checks, abandoned := r.MustValue(fmtName("cache", i, "machine_checks")), r.MustValue(fmtName("cache", i, "abandoned"))
		if checks == 0 || checks != abandoned {
			t.Errorf("cache%d latched %d machine checks and abandoned %d accesses; want equal and above 0", i, checks, abandoned)
		}
	}
}

// TestStepZeroAllocsWithoutPlan pins the hot-loop allocation contract:
// a plan-free machine steps without allocating, faults or no faults
// feature in the build.
func TestStepZeroAllocsWithoutPlan(t *testing.T) {
	cfg := MicroVAXConfig(3)
	m := New(cfg)
	m.AttachSyntheticLoad(stdLoad)
	m.Run(10_000) // warm caches and internal buffers
	avg := testing.AllocsPerRun(2000, func() { m.Step() })
	if avg != 0 {
		t.Fatalf("machine.Step allocates %.2f times per cycle, want 0", avg)
	}
}

// TestUnwiredInitiatorsRetry builds a QBus DMA engine and a display
// controller on a machine whose fault plan faults 5% of bus operations,
// and sets no fault policy on either: the bus's retries carry both
// through. Every DMA word lands in memory, every blit word reaches the
// frame buffer, and neither device abandons anything.
func TestUnwiredInitiatorsRetry(t *testing.T) {
	const words = 256
	cfg := MicroVAXConfig(2)
	cfg.Faults = &fault.Config{BusParityRate: 0.05}
	m := New(cfg)
	haltAll(m)
	maps := &qbus.MapRegisters{}
	maps.MapRange(0, 0x100000, words*4)
	eng := qbus.NewEngine(m.Clock(), m.Bus(), maps, 0)
	mdc := display.New(m.Clock(), m.Bus(), m.Memory(), display.Config{})
	m.AddDevice(eng)
	m.AddDevice(mdc)

	data := make([]uint32, words)
	for i := range data {
		data[i] = 0x5a000000 + uint32(i)
	}
	dmaDone, dmaFault := false, false
	eng.Submit(&qbus.Transfer{
		Device: "test", ToMemory: true, QAddr: 0, Words: words, Data: data,
		OnDone: func(f bool) { dmaDone, dmaFault = true, f },
	})
	// A 128x16 rectangle of all-ones words: 64 blit reads.
	const blitBase = 0x200000
	for k := 0; k < 64; k++ {
		m.Memory().Poke(blitBase+mbus.Addr(4*k), ^uint32(0))
	}
	mdc.Submit(display.CmdBltFromMemory{R: display.Rect{X: 0, Y: 0, W: 128, H: 16}, Addr: blitBase})
	m.Run(2_000_000)

	if !dmaDone || dmaFault {
		t.Fatalf("DMA transfer done %v, aborted %v; want done without a fault", dmaDone, dmaFault)
	}
	for i, want := range data {
		if got := m.Memory().Peek(mbus.Addr(0x100000 + 4*i)); got != want {
			t.Fatalf("DMA word %d reads %#x, want %#x", i, got, want)
		}
	}
	if mdc.Completed() != 1 || mdc.Stats().Errors.Value() != 0 || mdc.Stats().MemoryWords.Value() != 64 {
		t.Fatalf("display: %d commands completed, %d errors, %d blit words; want 1, 0, 64",
			mdc.Completed(), mdc.Stats().Errors.Value(), mdc.Stats().MemoryWords.Value())
	}
	for y := 0; y < 16; y++ {
		for x := 0; x < 128; x++ {
			if mdc.Frame().Get(x, y) != 1 {
				t.Fatalf("display pixel (%d,%d) blank: a blit word was lost", x, y)
			}
		}
	}
	for port, name := range map[int]string{eng.Port(): "DMA", eng.Port() + 1: "display"} {
		if retries := m.Bus().PortStats(port).Retries; retries == 0 {
			t.Fatalf("no %s operation was retried; the test covers nothing", name)
		}
	}
}
