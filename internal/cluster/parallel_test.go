package cluster

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"firefly/internal/check"
	"firefly/internal/coherence"
	"firefly/internal/fault"
	"firefly/internal/machine"
	"firefly/internal/net"
	"firefly/internal/obs"
	"firefly/internal/sim"
)

// TestClusterRunSecondsRounds is the regression test for the truncation
// bug machine.RunSeconds already fixed: 150 ns is 1.5 cycles and must
// round to 2, not truncate to 1 — otherwise machine-level and
// cluster-level runs of the same simulated duration disagree.
func TestClusterRunSecondsRounds(t *testing.T) {
	cl := New(Config{Node: quickNode(), Seed: 1})
	cl.RunSeconds(150e-9)
	if got := cl.Clock().Now(); got != 2 {
		t.Fatalf("RunSeconds(150ns) advanced to cycle %d, want 2 (truncation gives 1)", got)
	}
	for i, m := range cl.Machines() {
		if got := m.Clock().Now(); got != 2 {
			t.Fatalf("machine %d clock at %d after RunSeconds(150ns), want 2", i, got)
		}
	}
}

// TestRunUntilChecksAtWindows pins RunUntil's check points: before each
// serial Step and after each window. Twin clusters with the same setup
// must stop at the same cycle with byte-identical state at every worker
// count; that cycle lies no earlier than a per-cycle Step loop's trigger
// and at most min SendHorizon() + 1 cycles after it; and Step()ing or
// Run()ning a twin to it gives the same state. A predicate true on entry
// runs no cycle, on a fresh cluster (whose first regime is a window) and
// at the stop cycle. The quiet case has no wire traffic at all, so every
// check point is a window's end.
func TestRunUntilChecksAtWindows(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		setup func(*Cluster)
		pred  func(*Cluster) bool
	}{
		{
			name: "rpc",
			cfg:  Config{Node: quickNode(), Seed: 7},
			setup: func(cl *Cluster) {
				cl.Node(1).StartServer()
				cl.Node(0).StartCallers(3, 1, 64)
			},
			pred: func(cl *Cluster) bool { return cl.Node(0).Stats().CallsCompleted.Value() >= 200 },
		},
		{
			name: "bridged",
			cfg:  Config{Machines: 4, Segments: 2, Node: quickNode(), Net: fastNet(13), Seed: 13},
			setup: func(cl *Cluster) {
				cl.Node(3).StartServer()
				cl.Node(0).StartCallers(3, 3, 64)
			},
			pred: func(cl *Cluster) bool { return cl.Node(0).Stats().CallsCompleted.Value() >= 100 },
		},
		{
			name:  "quiet",
			cfg:   Config{Node: quickNode(), Seed: 5},
			setup: func(*Cluster) {},
			pred:  func(cl *Cluster) bool { return cl.Machine(1).Clock().Now() >= 100_000 },
		},
	}
	snapshot := func(cl *Cluster) string {
		var b strings.Builder
		for i, m := range cl.Machines() {
			fmt.Fprintf(&b, "== machine %d ==\n%s\nnode: %+v\n", i, m.Registry().String(), cl.Node(i).Stats())
		}
		for k := 0; k < cl.NumSegments(); k++ {
			fmt.Fprintf(&b, "== segment %d ==\n%+v\n", k, cl.SegmentAt(k).Stats())
		}
		if br := cl.Bridge(); br != nil {
			fmt.Fprintf(&b, "== bridge ==\n%+v\n", br.Stats())
		}
		fmt.Fprintf(&b, "cycle %d\n", cl.Clock().Now())
		return b.String()
	}
	const max = 20_000_000
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func(workers int) *Cluster {
				cfg := tc.cfg
				cfg.Workers = workers
				cl := New(cfg)
				tc.setup(cl)
				return cl
			}

			fresh := build(1)
			if !fresh.RunUntil(func() bool { return true }, max) || fresh.Clock().Now() != 0 {
				t.Fatalf("a predicate true on entry ran the fresh cluster to cycle %d", fresh.Clock().Now())
			}

			ref := build(1)
			for i := 0; i < max && !tc.pred(ref); i++ {
				ref.Step()
			}
			if !tc.pred(ref) {
				t.Fatalf("the Step loop never met the predicate in %d cycles", max)
			}
			trigger := ref.Clock().Now()
			slack := sim.Never
			for k := 0; k < ref.NumSegments(); k++ {
				slack = min(slack, ref.SegmentAt(k).SendHorizon()+1)
			}

			var stop sim.Cycle
			var want string
			for _, workers := range []int{1, 2, 8} {
				cl := build(workers)
				if !cl.RunUntil(func() bool { return tc.pred(cl) }, max) {
					t.Fatalf("workers=%d: RunUntil did not meet the predicate", workers)
				}
				got := snapshot(cl)
				if workers == 1 {
					stop, want = cl.Clock().Now(), got
					t.Logf("Step loop triggered at cycle %d, RunUntil stopped at %d (slack %d)", trigger, stop, slack)
					if stop < trigger || stop > trigger+slack {
						t.Fatalf("RunUntil stopped at cycle %d; the Step loop triggered at %d, so want %d..%d",
							stop, trigger, trigger, trigger+slack)
					}
					if !cl.RunUntil(func() bool { return tc.pred(cl) }, max) || cl.Clock().Now() != stop {
						t.Fatalf("a predicate true on entry moved the clock from %d to %d", stop, cl.Clock().Now())
					}
				} else if got != want {
					t.Fatalf("workers=%d diverged from workers=1\n--- got ---\n%s\n--- want ---\n%s", workers, got, want)
				}
			}

			for ref.Clock().Now() < stop {
				ref.Step()
			}
			if got := snapshot(ref); got != want {
				t.Fatalf("RunUntil diverged from the Step loop at cycle %d\n--- RunUntil ---\n%s\n--- Step ---\n%s", stop, want, got)
			}
			twin := build(1)
			twin.Run(uint64(stop))
			if got := snapshot(twin); got != want {
				t.Fatalf("RunUntil diverged from Run(%d)\n--- RunUntil ---\n%s\n--- Run ---\n%s", stop, want, got)
			}
		})
	}
}

// engineResult captures everything one engine variant produced: the
// rendered per-machine reports, a per-machine field hash of the full
// trace streams, and the raw JSONL of every segment's event stream.
type engineResult struct {
	report   string
	hashes   []uint64
	events   []uint64
	segJSONL [][]byte
	// Summed over every segment, plus the bridge's forwarded frames.
	collisions, deferrals, forwarded uint64
}

// runEngine builds a cluster, attaches one trace observer per machine
// and a JSONL sink per segment, applies the workload, and drives it
// either with the serial per-cycle reference loop ("step") or the
// windowed engine ("run") at the given worker count.
func runEngine(t *testing.T, cfg Config, setup func(*Cluster), cycles uint64, engine string, workers int, withOracle bool) engineResult {
	t.Helper()
	cfg.Workers = workers
	cl := New(cfg)
	sinks := make([]*fnvObserver, cl.Size())
	for i, m := range cl.Machines() {
		sinks[i] = &fnvObserver{h: fnv.New64a()}
		m.Trace(sinks[i])
	}
	var checkers []*check.Checker
	if withOracle {
		for _, m := range cl.Machines() {
			c, err := check.Attach(m)
			if err != nil {
				t.Fatal(err)
			}
			checkers = append(checkers, c)
		}
	}
	segBufs := make([]*bytes.Buffer, cl.NumSegments())
	segSinks := make([]*obs.JSONL, cl.NumSegments())
	for k := 0; k < cl.NumSegments(); k++ {
		segBufs[k] = &bytes.Buffer{}
		segSinks[k] = obs.NewJSONL(segBufs[k])
		cl.SegmentAt(k).SetTracer(obs.NewTracer(segSinks[k]))
	}
	setup(cl)
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
	for i, c := range checkers {
		if c.Checked() == 0 {
			t.Errorf("machine %d oracle validated nothing", i)
		}
		if !c.Ok() {
			t.Errorf("machine %d coherence violation: %v", i, c.First())
		}
	}
	var b strings.Builder
	for i, m := range cl.Machines() {
		fmt.Fprintf(&b, "== machine %d ==\n%s\nnode: %+v\n", i, m.Registry().String(), cl.Node(i).Stats())
	}
	res := engineResult{}
	for k := 0; k < cl.NumSegments(); k++ {
		st := cl.SegmentAt(k).Stats()
		fmt.Fprintf(&b, "== segment %d ==\n%+v\n", k, st)
		res.collisions += st.Collisions.Value()
		res.deferrals += st.Deferrals.Value()
	}
	if br := cl.Bridge(); br != nil {
		fmt.Fprintf(&b, "== bridge ==\n%+v\n", br.Stats())
		res.forwarded = br.Stats().Forwarded.Value()
	}
	fmt.Fprintf(&b, "latency %.3f us, cycles %d\n", cl.Node(0).MeanLatencyUS(), cl.Clock().Now())
	res.report = b.String()
	for _, s := range sinks {
		res.hashes = append(res.hashes, s.h.Sum64())
		res.events = append(res.events, s.events)
	}
	for _, buf := range segBufs {
		res.segJSONL = append(res.segJSONL, buf.Bytes())
	}
	return res
}

// diffEngines compares an engine variant against the serial reference.
func diffEngines(t *testing.T, label string, ref, got engineResult) {
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

// fastNet shrinks wire timings so a fixed cycle budget carries many
// calls (the soak test's configuration).
func fastNet(seed uint64) net.Config {
	return net.Config{WordCycles: 8, GapCycles: 24, Seed: seed}
}

// TestParallelDifferential is the tentpole's determinism contract: for
// every coherence protocol, the windowed engine at worker counts 1, 2,
// and 8 produces byte-identical reports, per-machine trace streams, and
// segment JSONL to the serial per-cycle reference loop.
func TestParallelDifferential(t *testing.T) {
	const cycles = 800_000
	for _, proto := range coherence.All() {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			mcfg := machine.MicroVAXConfig(2)
			mcfg.Protocol = proto
			cfg := Config{
				Machine: mcfg,
				Node:    quickNode(),
				Net:     fastNet(21),
				Seed:    21,
			}
			setup := func(cl *Cluster) {
				cl.Node(1).StartServer()
				cl.Node(0).StartCallers(4, 1, 64)
			}
			ref := runEngine(t, cfg, setup, cycles, "step", 1, false)
			if ref.events[0] == 0 {
				t.Fatal("reference run emitted no trace events; differential proves nothing")
			}
			for _, workers := range []int{1, 2, 8} {
				got := runEngine(t, cfg, setup, cycles, "run", workers, false)
				diffEngines(t, fmt.Sprintf("workers=%d", workers), ref, got)
			}
		})
	}
}

// TestParallelDifferentialLossy repeats the differential over a lossy
// wire (5% injected frame drops) with the coherence oracle attached to
// every machine: retransmission traffic, duplicate suppression, and
// fault-plan draws must all land on identical cycles at any worker
// count, and the oracle must stay green.
func TestParallelDifferentialLossy(t *testing.T) {
	node := quickNode()
	node.RetransmitCycles = 4_000
	cfg := Config{
		Node:   node,
		Net:    fastNet(9),
		Seed:   9,
		Faults: &fault.Config{NetDropRate: 0.05},
	}
	setup := func(cl *Cluster) {
		cl.Node(1).StartServer()
		cl.Node(0).StartCallers(3, 1, 64)
	}
	const cycles = 1_200_000
	ref := runEngine(t, cfg, setup, cycles, "step", 1, true)
	for _, workers := range []int{1, 2, 8} {
		got := runEngine(t, cfg, setup, cycles, "run", workers, true)
		diffEngines(t, fmt.Sprintf("lossy workers=%d", workers), ref, got)
	}
	if !strings.Contains(ref.report, "calls_completed") && ref.report == "" {
		t.Fatal("empty report")
	}
}

// TestMultiSegmentRPC drives calls across the bridge: a four-machine,
// two-segment cluster where the client and server live on different
// wires. Every call and reply crosses the bridge store-and-forward;
// the transport must neither lose nor duplicate anything, and no frame
// may arrive at a station it was not addressed to.
func TestMultiSegmentRPC(t *testing.T) {
	cl := New(Config{Machines: 4, Segments: 2, Node: quickNode(), Net: fastNet(13), Seed: 13})
	if cl.NumSegments() != 2 || cl.Bridge() == nil {
		t.Fatal("topology not built")
	}
	if cl.SegmentOf(0) != 0 || cl.SegmentOf(3) != 1 {
		t.Fatalf("contiguous split broken: machine 0 on segment %d, machine 3 on %d",
			cl.SegmentOf(0), cl.SegmentOf(3))
	}
	cl.Node(3).StartServer()
	cl.Node(0).StartCallers(3, 3, 64)
	const want = 300
	if !cl.RunUntil(func() bool {
		return cl.Node(0).Stats().CallsCompleted.Value() >= want
	}, 100_000_000) {
		t.Fatalf("only %d/%d cross-segment calls completed",
			cl.Node(0).Stats().CallsCompleted.Value(), want)
	}
	if f := cl.Bridge().Stats().Forwarded.Value(); f < 2*want {
		t.Errorf("bridge forwarded %d frames, want >= %d (calls and replies both cross)", f, 2*want)
	}
	if u := cl.Bridge().Stats().Unroutable.Value(); u != 0 {
		t.Errorf("%d unroutable frames at the bridge", u)
	}
	for k := 0; k < 2; k++ {
		if n := cl.SegmentAt(k).Stats().Frames.Value(); n < want {
			t.Errorf("segment %d carried %d frames, want >= %d", k, n, want)
		}
	}
	for i := 0; i < cl.Size(); i++ {
		st := cl.Node(i).Stats()
		if m := st.Misrouted.Value(); m != 0 {
			t.Errorf("node %d saw %d misrouted frames", i, m)
		}
		if st.CallsFailed.Value() != 0 {
			t.Errorf("node %d lost %d calls crossing the bridge", i, st.CallsFailed.Value())
		}
	}
	srv := cl.Node(3).Stats()
	if srv.CallsReceived.Value() > cl.Node(0).Stats().CallsIssued.Value() {
		t.Error("a duplicate call slipped the dedup across the bridge")
	}
}

// TestMultiSegmentParallelDifferential runs the full differential on a
// bridged topology: six machines on three segments, two client machines
// calling a cross-segment server, compared across worker counts.
func TestMultiSegmentParallelDifferential(t *testing.T) {
	cfg := Config{
		Machines: 6,
		Segments: 3,
		Node:     quickNode(),
		Net:      fastNet(31),
		Seed:     31,
	}
	setup := func(cl *Cluster) {
		cl.Node(5).StartServer()
		cl.Node(0).StartCallers(2, 5, 64)
		cl.Node(2).StartCallers(2, 5, 64)
	}
	const cycles = 700_000
	ref := runEngine(t, cfg, setup, cycles, "step", 1, false)
	if !strings.Contains(ref.report, "== bridge ==") {
		t.Fatal("bridged report missing bridge stats")
	}
	for _, workers := range []int{1, 2, 8} {
		got := runEngine(t, cfg, setup, cycles, "run", workers, false)
		diffEngines(t, fmt.Sprintf("bridged workers=%d", workers), ref, got)
	}
}

// TestFleetParallelDifferential runs the differential on the fleet
// shape: sixteen machines on four bridged segments, most of them with
// halted CPUs, a server, three callers on the server's segment and one
// across the bridge. The wire replay skips from wire event to wire
// event, so the reference run must carry busy wires with deferred
// stations, collision backoffs, and frames held in the bridge. The
// collisions come by construction: the callers start in the same cycle,
// and with three of them, the server and the bridge contending for one
// wire, stations that deferred to a frame seize the idle wire together.
// Across seeds 1 to 6 the reference run carries 12 to 29 collisions and
// over 100 deferrals, so the floors below leave a margin.
func TestFleetParallelDifferential(t *testing.T) {
	cfg := Config{
		Machines: 16,
		Segments: 4,
		Node:     quickNode(),
		Net:      fastNet(3),
		Seed:     3,
	}
	setup := func(cl *Cluster) {
		cl.Node(0).StartServer()
		for _, i := range []int{1, 2, 3, 6} {
			cl.Node(i).StartCallers(8, 0, 64)
		}
		for i := 4; i < cl.Size(); i++ {
			if i == 6 {
				continue
			}
			m := cl.Machine(i)
			for p := 0; p < m.Config().Processors; p++ {
				m.CPU(p).Halt()
			}
		}
	}
	const cycles = 800_000
	ref := runEngine(t, cfg, setup, cycles, "step", 1, false)
	if ref.collisions < 6 || ref.deferrals < 50 || ref.forwarded < 100 {
		t.Fatalf("fleet exercised collisions=%d deferrals=%d forwarded=%d; want at least 6, 50 and 100",
			ref.collisions, ref.deferrals, ref.forwarded)
	}
	for _, workers := range []int{1, 2, 8} {
		got := runEngine(t, cfg, setup, cycles, "run", workers, false)
		diffEngines(t, fmt.Sprintf("fleet workers=%d", workers), ref, got)
	}
}

// TestQuiescentFleetDifferential drives Run over a fleet with no running
// CPU: sixteen machines on four bridged segments step serially with a
// server and two callers (one across the bridge) until calls are in
// flight, then every processor on every member halts. From then on
// in-flight frames, DEQNA DMA and retransmission deadlines are the only
// events, and the windowed engine must still match the serial
// reference byte for byte.
func TestQuiescentFleetDifferential(t *testing.T) {
	cfg := Config{
		Machines: 16,
		Segments: 4,
		Node:     quickNode(),
		Net:      fastNet(5),
		Seed:     5,
	}
	var last *Cluster
	var atHalt uint64
	retransmits := func(cl *Cluster) uint64 {
		n := uint64(0)
		for i := 0; i < cl.Size(); i++ {
			n += cl.Node(i).Stats().Retransmits.Value()
		}
		return n
	}
	setup := func(cl *Cluster) {
		last = cl
		cl.Node(0).StartServer()
		cl.Node(1).StartCallers(4, 0, 64)
		cl.Node(6).StartCallers(4, 0, 64)
		for i := 0; i < 60_000; i++ {
			cl.Step()
		}
		for _, m := range cl.Machines() {
			for _, p := range m.Processors() {
				p.Halt()
			}
		}
		atHalt = retransmits(cl)
	}
	const cycles = 600_000
	ref := runEngine(t, cfg, setup, cycles, "step", 1, false)
	if n := retransmits(last); n <= atHalt {
		t.Fatalf("halted fleet retransmitted nothing (%d before the halt, %d after); the differential covers no timer-driven traffic", atHalt, n)
	}
	for _, workers := range []int{1, 2, 8} {
		got := runEngine(t, cfg, setup, cycles, "run", workers, false)
		diffEngines(t, fmt.Sprintf("quiescent fleet workers=%d", workers), ref, got)
	}
}
