package machine

import (
	"bytes"
	"testing"

	"firefly/internal/obs"
	"firefly/internal/qbus"
	"firefly/internal/trace"
)

// stdLoad is the paper's synthetic characterization, used by the trace
// tests.
var stdLoad = trace.SyntheticLoad{MissRate: 0.2, ShareFraction: 0.1, SharedReadFraction: 0.1}

func TestTracingDisabledByDefault(t *testing.T) {
	m := New(MicroVAXConfig(2))
	if m.Tracer() != nil {
		t.Fatal("fresh machine has a tracer")
	}
	m.AttachSyntheticLoad(stdLoad)
	m.Run(10_000)
	if m.Report().MeanCPU().Total == 0 {
		t.Fatal("machine made no progress without tracing")
	}
}

func TestTraceReceivesEvents(t *testing.T) {
	ring := obs.NewRing(1 << 16)
	m := New(MicroVAXConfig(2))
	if m.Trace(ring) == nil || m.Tracer() == nil {
		t.Fatal("Trace did not install a tracer")
	}
	m.AttachSyntheticLoad(stdLoad)
	m.Run(20_000)

	kinds := map[obs.Kind]int{}
	for _, e := range ring.Events() {
		kinds[e.Kind]++
	}
	for _, want := range []obs.Kind{
		obs.KindBusGrant, obs.KindBusOp,
		obs.KindCacheReadHit, obs.KindCacheReadMiss, obs.KindCacheState,
	} {
		if kinds[want] == 0 {
			t.Fatalf("no %v events in a 20k-cycle synthetic run; kinds seen: %v", want, kinds)
		}
	}
}

func TestTraceEnableAfterConstruction(t *testing.T) {
	m := New(MicroVAXConfig(2))
	m.AttachSyntheticLoad(stdLoad)
	m.Run(5_000) // untraced prefix

	ring := obs.NewRing(4096)
	tr := m.Trace(ring)
	if tr == nil || m.Tracer() != tr {
		t.Fatal("Trace did not install a tracer")
	}
	m.Run(5_000)
	if ring.Len() == 0 {
		t.Fatal("no events after enabling tracing mid-run")
	}
	if tr.Count() == 0 {
		t.Fatal("tracer count is zero")
	}
	// A second Trace call attaches to the same tracer.
	ring2 := obs.NewRing(16)
	if got := m.Trace(ring2); got != tr {
		t.Fatal("second Trace call replaced the tracer")
	}
	m.Run(100)
	if ring2.Len() == 0 {
		t.Fatal("sink attached by second Trace call got no events")
	}
}

func TestTraceCoversDMA(t *testing.T) {
	m := New(MicroVAXConfig(1))
	for _, p := range m.Processors() {
		p.Halt()
	}
	maps := &qbus.MapRegisters{}
	eng := qbus.NewEngine(m.Clock(), m.Bus(), maps, 4)
	m.AddDevice(eng)
	maps.MapRange(0, 0x4000, qbus.PageBytes)

	// Tracing enabled after the engine was built: the engine must pick the
	// tracer up lazily through the bus.
	ring := obs.NewRing(4096)
	m.Trace(ring)

	done := false
	eng.Submit(&qbus.Transfer{
		Device: "rqdx3", ToMemory: true, QAddr: 0, Words: 8,
		Data:   make([]uint32, 8),
		OnDone: func(bool) { done = true },
	})
	m.Run(200)
	if !done {
		t.Fatal("transfer did not complete")
	}
	kinds := map[obs.Kind]int{}
	for _, e := range ring.Events() {
		kinds[e.Kind]++
	}
	if kinds[obs.KindDMAStart] != 1 || kinds[obs.KindDMADone] != 1 {
		t.Fatalf("dma start/done = %d/%d, want 1/1", kinds[obs.KindDMAStart], kinds[obs.KindDMADone])
	}
	if kinds[obs.KindDMAWord] != 8 {
		t.Fatalf("dma words = %d, want 8", kinds[obs.KindDMAWord])
	}
}

// TestTraceDeterministic is the reproducibility contract: two runs with
// the same seed export byte-identical JSONL.
func TestTraceDeterministic(t *testing.T) {
	run := func() []byte {
		var buf bytes.Buffer
		sink := obs.NewJSONL(&buf)
		cfg := MicroVAXConfig(3)
		cfg.Seed = 7
		m := New(cfg)
		m.Trace(sink)
		m.AttachSyntheticLoad(stdLoad)
		m.Run(30_000)
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no trace output")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different traces (%d vs %d bytes)", len(a), len(b))
	}
	// A different seed must produce a different stream — otherwise the
	// equality above proves nothing.
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	cfg := MicroVAXConfig(3)
	cfg.Seed = 8
	m := New(cfg)
	m.Trace(sink)
	m.AttachSyntheticLoad(stdLoad)
	m.Run(30_000)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, buf.Bytes()) {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestRegistryMatchesComponentStats pins the registry to the live
// component counters it names.
func TestRegistryMatchesComponentStats(t *testing.T) {
	m := New(MicroVAXConfig(2))
	m.AttachSyntheticLoad(stdLoad)
	m.Run(20_000)

	reg := m.Registry()
	bst := m.Bus().Stats()
	if got := reg.MustValue("bus.cycles"); got != bst.Cycles {
		t.Fatalf("bus.cycles = %d, bus stats say %d", got, bst.Cycles)
	}
	if got := reg.MustValue("bus.busy_cycles"); got != bst.BusyCycles {
		t.Fatalf("bus.busy_cycles = %d, want %d", got, bst.BusyCycles)
	}
	if got := reg.MustValue("bus.ops.total"); got != bst.TotalOps() {
		t.Fatalf("bus.ops.total = %d, want %d", got, bst.TotalOps())
	}
	for i := 0; i < 2; i++ {
		pst := m.CPU(i).Stats()
		cst := m.Cache(i).Stats()
		checks := map[string]uint64{
			"instructions": pst.Instructions,
			"ticks":        pst.Ticks,
			"reads":        pst.Reads,
			"writes":       pst.Writes,
		}
		for name, want := range checks {
			if got := reg.MustValue(fmtName("cpu", i, name)); got != want {
				t.Fatalf("cpu%d.%s = %d, want %d", i, name, got, want)
			}
		}
		cacheChecks := map[string]uint64{
			"read_hits":    cst.ReadHits,
			"read_misses":  cst.ReadMisses,
			"write_misses": cst.WriteMisses,
			"fill_ops":     cst.FillOps,
		}
		for name, want := range cacheChecks {
			if got := reg.MustValue(fmtName("cache", i, name)); got != want {
				t.Fatalf("cache%d.%s = %d, want %d", i, name, got, want)
			}
		}
		// The per-port counters: the registry reads Bus.PortStats, Stats
		// builds its slices from the same records.
		portChecks := map[string]uint64{
			fmtName("bus.port", i, "ops"):         bst.PerPort[i],
			fmtName("bus.port", i, "wait_cycles"): bst.WaitPerPort[i],
			fmtName("cache", i, "bus_faults"):     bst.FaultsPerPort[i],
			fmtName("cache", i, "retries"):        bst.RetriesPerPort[i],
		}
		for name, want := range portChecks {
			if got := reg.MustValue(name); got != want {
				t.Fatalf("%s = %d, bus stats say %d", name, got, want)
			}
		}
		if bst.PerPort[i] == 0 {
			t.Fatalf("port %d completed no operations; the check covers nothing", i)
		}
	}
	if bst.WaitPerPort[1] == 0 {
		t.Fatal("port 1 never waited; the check covers nothing")
	}
	// The registry must be live: after more cycles the values move.
	before := reg.MustValue("bus.cycles")
	m.Run(1000)
	if after := reg.MustValue("bus.cycles"); after != before+1000 {
		t.Fatalf("bus.cycles stale: %d -> %d after 1000 cycles", before, after)
	}
	// And a snapshot names everything a report needs.
	if reg.Len() < 20 {
		t.Fatalf("registry holds only %d counters", reg.Len())
	}
}

func fmtName(unit string, i int, name string) string {
	return unit + string(rune('0'+i)) + "." + name
}
