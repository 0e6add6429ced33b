package traffic

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"strings"
	"testing"

	"firefly/internal/cluster"
	"firefly/internal/net"
	"firefly/internal/obs"
	"firefly/internal/rpc"
)

// trafficCosts is the transport calibration the analytic comparisons
// price against (the repo defaults).
func trafficCosts() rpc.Config { return rpc.Config{} }

// quickNode mirrors the cluster package's test configuration: every
// pipeline stage shrunk so a fixed cycle budget carries many calls.
func quickNode() rpc.NodeConfig {
	return rpc.NodeConfig{
		Costs: rpc.Config{
			ClientFixedCycles:        300,
			ClientPerByteCentiCycles: 10,
			ServerFixedCycles:        400,
			ServerPerByteCentiCycles: 10,
			ClientFinishCycles:       100,
			PayloadBytes:             64,
		},
		Workers:          2,
		RetransmitCycles: 50_000,
	}
}

// fastNet shrinks wire timings the same way the cluster soak tests do.
func fastNet(seed uint64) net.Config {
	return net.Config{WordCycles: 8, GapCycles: 24, Seed: seed}
}

// fnvObserver folds every trace event's fields into a running FNV-64a
// hash: equal hashes over equal-length streams mean byte-identical
// JSONL without encoding millions of events.
type fnvObserver struct {
	h      hash.Hash64
	events uint64
}

func (o *fnvObserver) Observe(e obs.Event) {
	var b [36]byte
	binary.LittleEndian.PutUint64(b[0:], e.Cycle)
	binary.LittleEndian.PutUint32(b[8:], uint32(e.Kind))
	binary.LittleEndian.PutUint32(b[12:], uint32(e.Unit))
	binary.LittleEndian.PutUint32(b[16:], e.Addr)
	binary.LittleEndian.PutUint64(b[20:], e.A)
	binary.LittleEndian.PutUint64(b[28:], e.B)
	o.h.Write(b[:])
	o.h.Write([]byte(e.Label))
	o.events++
}

// engineResult captures one run: the traffic report plus per-machine
// registries and node stats, per-machine trace hashes, and the raw
// JSONL of every segment's event stream.
type engineResult struct {
	report   string
	hashes   []uint64
	events   []uint64
	segJSONL [][]byte
}

// runTraffic builds a cluster with the spec's node patch, attaches the
// traffic engine plus one trace observer per machine and a JSONL sink
// per segment, and drives it either with the serial per-cycle reference
// loop ("step") or the windowed engine ("run") at the given worker
// count.
func runTraffic(t *testing.T, cfg cluster.Config, spec Spec, cycles uint64, engine string, workers int) engineResult {
	t.Helper()
	cfg.NodePatch = spec.NodePatch()
	cfg.Workers = workers
	cl := cluster.New(cfg)
	sinks := make([]*fnvObserver, cl.Size())
	for i, m := range cl.Machines() {
		sinks[i] = &fnvObserver{h: fnv.New64a()}
		m.Trace(sinks[i])
	}
	segBufs := make([]*bytes.Buffer, cl.NumSegments())
	segSinks := make([]*obs.JSONL, cl.NumSegments())
	for k := 0; k < cl.NumSegments(); k++ {
		segBufs[k] = &bytes.Buffer{}
		segSinks[k] = obs.NewJSONL(segBufs[k])
		cl.SegmentAt(k).SetTracer(obs.NewTracer(segSinks[k]))
	}
	eng := Attach(cl, spec)
	switch engine {
	case "step":
		for i := uint64(0); i < cycles; i++ {
			cl.Step()
		}
	case "run":
		cl.Run(cycles)
	default:
		t.Fatalf("unknown engine %q", engine)
	}
	for _, s := range segSinks {
		s.Close()
	}
	var b strings.Builder
	b.WriteString(eng.Report())
	for i, m := range cl.Machines() {
		fmt.Fprintf(&b, "== machine %d ==\n%s\nnode: %+v\n", i, m.Registry().String(), cl.Node(i).Stats())
	}
	res := engineResult{report: b.String()}
	for _, s := range sinks {
		res.hashes = append(res.hashes, s.h.Sum64())
		res.events = append(res.events, s.events)
	}
	for _, buf := range segBufs {
		res.segJSONL = append(res.segJSONL, buf.Bytes())
	}
	return res
}

// diffTraffic compares a run against the serial reference.
func diffTraffic(t *testing.T, label string, ref, got engineResult) {
	t.Helper()
	for i := range ref.hashes {
		if ref.hashes[i] != got.hashes[i] || ref.events[i] != got.events[i] {
			t.Errorf("%s: machine %d trace diverged: %#x/%d events vs %#x/%d",
				label, i, got.hashes[i], got.events[i], ref.hashes[i], ref.events[i])
		}
	}
	for k := range ref.segJSONL {
		if !bytes.Equal(ref.segJSONL[k], got.segJSONL[k]) {
			t.Errorf("%s: segment %d JSONL diverged (%d vs %d bytes)",
				label, k, len(got.segJSONL[k]), len(ref.segJSONL[k]))
		}
	}
	if ref.report != got.report {
		t.Errorf("%s: report diverged\n--- got ---\n%s\n--- want ---\n%s", label, got.report, ref.report)
	}
}

// soakSpec is the determinism soak's workload: a bridged fleet pushed
// past its admission bounds so arrivals, routing, service, shed
// rejections, retransmissions, and bridge crossings all run hot.
func soakSpec(seed uint64) Spec {
	return Spec{
		Rate:  5000,
		Mix:   [NumClasses]int{6, 3, 1},
		LB:    "least",
		Queue: 2,
		Seed:  seed,
	}
}

func soakConfig() cluster.Config {
	return cluster.Config{
		Machines: 6,
		Segments: 3,
		Node:     quickNode(),
		Net:      fastNet(21),
		Seed:     21,
	}
}

// TestTrafficParallelDifferential is the fleet engine's determinism
// contract: the same spec and cluster seed produce byte-identical
// traffic reports, per-machine trace streams, and per-segment JSONL
// whether the cluster is stepped serially or run windowed at worker
// counts 1, 2, and 8. This is the test that licenses every performance
// claim the traffic experiment makes — and it runs under -race in CI.
func TestTrafficParallelDifferential(t *testing.T) {
	const cycles = 600_000
	cfg, spec := soakConfig(), soakSpec(21)
	ref := runTraffic(t, cfg, spec, cycles, "step", 1)
	if ref.events[0] == 0 {
		t.Fatal("reference run emitted no trace events; differential proves nothing")
	}
	if !strings.Contains(ref.report, "shed") {
		t.Fatal("soak report missing shed accounting")
	}
	for _, workers := range []int{1, 2, 8} {
		got := runTraffic(t, cfg, spec, cycles, "run", workers)
		diffTraffic(t, fmt.Sprintf("workers=%d", workers), ref, got)
	}
}

// TestTrafficSeedChangesOutcome: a different engine seed must produce a
// different arrival sequence — identical reports across seeds would
// mean the split streams are not actually consumed.
func TestTrafficSeedChangesOutcome(t *testing.T) {
	const cycles = 300_000
	a := runTraffic(t, soakConfig(), soakSpec(21), cycles, "run", 2)
	b := runTraffic(t, soakConfig(), soakSpec(99), cycles, "run", 2)
	if a.report == b.report {
		t.Fatal("different traffic seeds produced identical reports")
	}
}

// TestTrafficCrossBridgeRouting: on a bridged fleet every call from the
// balancer to a remote segment crosses the bridge; nothing may be
// misrouted, lost as unroutable, or delivered to the wrong station.
func TestTrafficCrossBridgeRouting(t *testing.T) {
	spec := Spec{Rate: 1500, Mix: [NumClasses]int{1, 0, 0}, LB: "rr", Queue: 0, Seed: 5}
	cfg := cluster.Config{
		Machines:  8,
		Segments:  4,
		Node:      quickNode(),
		Net:       fastNet(5),
		Seed:      5,
		NodePatch: spec.NodePatch(),
	}
	cl := cluster.New(cfg)
	eng := Attach(cl, spec)
	cl.Run(2_000_000)
	if eng.CallsCompleted() == 0 {
		t.Fatal("no calls completed")
	}
	br := cl.Bridge()
	if br == nil {
		t.Fatal("topology not bridged")
	}
	if br.Stats().Forwarded.Value() == 0 {
		t.Fatal("round-robin over 4 segments never crossed the bridge")
	}
	if u := br.Stats().Unroutable.Value(); u != 0 {
		t.Errorf("%d unroutable frames at the bridge", u)
	}
	for i := 0; i < cl.Size(); i++ {
		st := cl.Node(i).Stats()
		if m := st.Misrouted.Value(); m != 0 {
			t.Errorf("node %d saw %d misrouted frames", i, m)
		}
	}
	// rr over 7 backends: every backend must have served something.
	for i := 1; i < cl.Size(); i++ {
		if cl.Node(i).Stats().Served.Value() == 0 {
			t.Errorf("backend %d served nothing under round-robin", i)
		}
	}
}

// TestTrafficAdmissionControlExactlyOnce: with a tiny queue bound under
// overload, every issued call reaches exactly one disposition — served,
// shed, or failed — and the engine's ledger reconciles with the
// runtime's counters on both sides of the wire.
func TestTrafficAdmissionControlExactlyOnce(t *testing.T) {
	spec := Spec{Rate: 8000, Mix: [NumClasses]int{0, 1, 0}, LB: "least", Queue: 1, Seed: 3}
	node := quickNode()
	node.RetransmitCycles = 2_000_000
	cfg := cluster.Config{
		Machines:  3,
		Node:      node,
		Net:       fastNet(3),
		Seed:      3,
		NodePatch: spec.NodePatch(),
	}
	cl := cluster.New(cfg)
	eng := Attach(cl, spec)
	cl.Run(3_000_000)

	issued, completed := eng.CallsIssued(), eng.CallsCompleted()
	shed, failed := eng.CallsShed(), eng.CallsFailed()
	if shed == 0 {
		t.Fatal("overloaded queue bound of 1 shed nothing")
	}
	if completed == 0 {
		t.Fatal("admission control starved the fleet completely")
	}
	if failed != 0 {
		t.Errorf("%d calls failed; rejection replies should beat the retransmit budget", failed)
	}
	if got := completed + shed + failed + uint64(eng.InFlight()); got != issued {
		t.Errorf("dispositions %d + in-flight do not reconcile with %d issued", got, issued)
	}
	lb := cl.Node(0).Stats()
	if lb.ShedReplies.Value() != shed {
		t.Errorf("client saw %d shed replies, engine counted %d", lb.ShedReplies.Value(), shed)
	}
	var serverShed, served uint64
	for i := 1; i < cl.Size(); i++ {
		st := cl.Node(i).Stats()
		serverShed += st.CallsShed.Value()
		served += st.Served.Value()
	}
	if serverShed < shed {
		t.Errorf("servers shed %d but clients saw %d rejections", serverShed, shed)
	}
	if served < completed {
		t.Errorf("servers served %d but %d calls completed", served, completed)
	}
	// The dedup cache must answer retransmitted sheds without double
	// counting: completions can never exceed distinct calls received.
	var received uint64
	for i := 1; i < cl.Size(); i++ {
		received += cl.Node(i).Stats().CallsReceived.Value()
	}
	if completed > received {
		t.Errorf("%d completions exceed %d distinct calls received", completed, received)
	}
	// Queue bound respected: no server's dispatch queue ever grew past it.
	for i := 1; i < cl.Size(); i++ {
		if qp := cl.Node(i).QueuePeak(); qp > spec.Queue {
			t.Errorf("backend %d queue peaked at %d, bound %d", i, qp, spec.Queue)
		}
	}
}

// BenchmarkFleetTrafficCycle measures fleet cycles/sec with the traffic
// driver attached: the 16-machine, 4-segment experiment topology under
// the default mix. One iteration is one cluster cycle.
func BenchmarkFleetTrafficCycle(b *testing.B) {
	spec := DefaultSpec()
	spec.Rate = 2000
	cl := cluster.New(spec.ClusterConfig(16, 4, 11))
	Attach(cl, spec)
	cl.Run(200_000) // warm the fleet past the first arrivals
	b.ResetTimer()
	cl.Run(uint64(b.N))
}
