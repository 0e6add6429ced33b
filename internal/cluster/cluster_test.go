package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"firefly/internal/check"
	"firefly/internal/fault"
	"firefly/internal/net"
	"firefly/internal/obs"
	"firefly/internal/rpc"
	"firefly/internal/topaz"
)

// fnvObserver folds every event's fields into an FNV-64a running hash.
// The JSONL rendering is a pure function of these fields, so equal
// hashes over equal-length streams mean byte-identical traces — without
// paying to JSON-encode millions of events.
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

// quickNode shrinks every pipeline stage so tests push many calls
// through quickly; timings stay deterministic, just small.
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

func TestEndToEndRPC(t *testing.T) {
	cl := New(Config{Node: quickNode(), Seed: 3})
	cl.Node(1).StartServer()
	cl.Node(0).StartCallers(3, 1, 64)

	const want = 50
	ok := cl.RunUntil(func() bool {
		return cl.Node(0).Stats().CallsCompleted.Value() >= want
	}, 20_000_000)
	if !ok {
		t.Fatalf("only %d calls completed in 20M cycles",
			cl.Node(0).Stats().CallsCompleted.Value())
	}
	cli, srv := cl.Node(0).Stats(), cl.Node(1).Stats()
	if srv.CallsReceived.Value() < want {
		t.Fatalf("server received %d calls, want >= %d", srv.CallsReceived.Value(), want)
	}
	for name, c := range map[string]uint64{
		"client failed calls":   cli.CallsFailed.Value(),
		"client bad frames":     cli.BadFrames.Value(),
		"client bad messages":   cli.BadMessages.Value(),
		"server bad frames":     srv.BadFrames.Value(),
		"server bad payload":    srv.BadPayload.Value(),
		"server duplicate call": srv.DupCalls.Value(),
		"client retransmits":    cli.Retransmits.Value(),
	} {
		if c != 0 {
			t.Errorf("%s = %d, want 0 on a clean wire", name, c)
		}
	}
	if f := cl.Segment().Stats().Frames.Value(); f < 2*want {
		t.Errorf("segment carried %d frames, want >= %d (call + reply each)", f, 2*want)
	}
	if lat := cl.Node(0).MeanLatencyUS(); lat <= 0 {
		t.Errorf("mean latency = %v µs, want > 0", lat)
	}
}

func TestOpenLoopGenerator(t *testing.T) {
	cl := New(Config{Node: quickNode(), Seed: 11})
	cl.Node(1).StartServer()
	for i := 0; i < 40; i++ {
		cl.Node(0).Issue(1, 64, rpc.DefaultProc, nil)
		cl.Run(2_000)
	}
	ok := cl.RunUntil(func() bool {
		return cl.Node(0).Stats().CallsCompleted.Value() >= 40
	}, 20_000_000)
	if !ok {
		t.Fatalf("open loop completed %d/40 calls",
			cl.Node(0).Stats().CallsCompleted.Value())
	}
	if iss := cl.Node(0).Stats().CallsIssued.Value(); iss != 40 {
		t.Fatalf("open loop issued %d calls, want exactly 40", iss)
	}
}

// soakResult captures everything one soak run produced: a rendered
// report, a field hash (+ event count) of the full machine trace
// streams, and the raw JSONL bytes of the segment's (smaller) stream.
type soakResult struct {
	report    string
	machines  uint64
	events    uint64
	segJSONL  []byte
	completed uint64
}

// soak runs a two-machine cluster with full tracing until the client
// completes `calls` calls.
func soak(t *testing.T, seed uint64, calls uint64) soakResult {
	t.Helper()
	node := quickNode()
	node.DispatchInstr = 4
	node.Kernel = topaz.Config{SwitchCost: 4}
	cl := New(Config{
		Node: node,
		Net:  net.Config{WordCycles: 8, GapCycles: 24, Seed: seed},
		Seed: seed,
	})
	machineSink := &fnvObserver{h: fnv.New64a()}
	for _, m := range cl.Machines() {
		m.Trace(machineSink)
	}
	var segBuf bytes.Buffer
	segSink := obs.NewJSONL(&segBuf)
	cl.Segment().SetTracer(obs.NewTracer(segSink))
	cl.Node(1).StartServer()
	cl.Node(0).StartCallers(4, 1, 64)
	if !cl.RunUntil(func() bool {
		return cl.Node(0).Stats().CallsCompleted.Value() >= calls
	}, 400_000_000) {
		t.Fatalf("soak stalled at %d/%d calls",
			cl.Node(0).Stats().CallsCompleted.Value(), calls)
	}
	segSink.Close()

	var b strings.Builder
	for i, m := range cl.Machines() {
		fmt.Fprintf(&b, "== machine %d ==\n%s\n", i, m.Registry().String())
	}
	fmt.Fprintf(&b, "== segment ==\n%+v\n", cl.Segment().Stats())
	fmt.Fprintf(&b, "latency %.3f us, cycles %d\n",
		cl.Node(0).MeanLatencyUS(), cl.Clock().Now())
	return soakResult{
		report:    b.String(),
		machines:  machineSink.h.Sum64(),
		events:    machineSink.events,
		segJSONL:  segBuf.Bytes(),
		completed: cl.Node(0).Stats().CallsCompleted.Value(),
	}
}

func TestClusterDeterministicSoak(t *testing.T) {
	const calls = 10_000
	r1 := soak(t, 42, calls)
	r2 := soak(t, 42, calls)
	if r1.machines != r2.machines || r1.events != r2.events {
		t.Errorf("same seed produced different machine trace streams: %#x/%d vs %#x/%d events",
			r1.machines, r1.events, r2.machines, r2.events)
	}
	if !bytes.Equal(r1.segJSONL, r2.segJSONL) {
		t.Error("same seed produced different segment JSONL traces")
	}
	if r1.report != r2.report {
		t.Errorf("same seed produced different reports:\n%s\n-- vs --\n%s",
			r1.report, r2.report)
	}
	if r1.completed < calls {
		t.Errorf("soak completed %d calls, want >= %d", r1.completed, calls)
	}
	// And the seed must matter: a different seed shifts the scheduler and
	// wire interleavings, so the trace stream cannot coincide.
	r3 := soak(t, 43, 1_000)
	if r3.machines == r1.machines {
		t.Error("different seeds produced identical machine trace streams")
	}
}

// TestDifferentialVsAnalytic holds the cycle-level cluster against the
// analytic transport pipeline: same stage costs, so sustained bandwidth
// must agree within 15% at every §6 thread count. At three threads the
// simulated wire must also clear the paper's 4.6 Mbit/s plateau
// (acceptance floor: 4.0).
func TestDifferentialVsAnalytic(t *testing.T) {
	const secs = 0.5
	for _, threads := range []int{1, 2, 3, 4} {
		cl := New(Config{Seed: 5})
		cl.Node(1).StartServer()
		cl.Node(0).StartCallers(threads, 1, 0)
		cl.RunSeconds(secs)
		cli := cl.Node(0).Stats()
		got := float64(cli.BytesMoved.Value()) * 8 / secs / 1e6
		want := rpc.Run(rpc.Config{}, threads, secs).Mbps
		diff := math.Abs(got-want) / want
		t.Logf("threads=%d cluster=%.2f analytic=%.2f Mbit/s (%.1f%% apart)",
			threads, got, want, diff*100)
		if diff > 0.15 {
			t.Errorf("threads=%d: cluster %.2f vs analytic %.2f Mbit/s, %.1f%% apart (limit 15%%)",
				threads, got, want, diff*100)
		}
		if threads == 3 && got < 4.0 {
			t.Errorf("3-thread bandwidth %.2f Mbit/s below the 4 Mbit/s §6 floor", got)
		}
		if r := cli.Retransmits.Value(); r != 0 {
			t.Errorf("threads=%d: %d spurious retransmits on a clean wire", threads, r)
		}
	}
}

// TestFrameDropRecovery drives the cluster over a lossy wire: the fault
// plan drops 5%% of delivered frames, and the client's
// retransmit-with-backoff plus the server's ID dedup must deliver every
// call exactly once, with the coherence oracle green throughout.
func TestFrameDropRecovery(t *testing.T) {
	node := quickNode()
	node.RetransmitCycles = 4_000
	cl := New(Config{
		Node:   node,
		Seed:   9,
		Faults: &fault.Config{NetDropRate: 0.05},
	})
	var checkers []*check.Checker
	for _, m := range cl.Machines() {
		c, err := check.Attach(m)
		if err != nil {
			t.Fatal(err)
		}
		checkers = append(checkers, c)
	}
	cl.Node(1).StartServer()
	cl.Node(0).StartCallers(3, 1, 64)

	const want = 500
	if !cl.RunUntil(func() bool {
		return cl.Node(0).Stats().CallsCompleted.Value() >= want
	}, 100_000_000) {
		t.Fatalf("only %d/%d calls completed over the lossy wire",
			cl.Node(0).Stats().CallsCompleted.Value(), want)
	}
	cli, srv := cl.Node(0).Stats(), cl.Node(1).Stats()
	if d := cl.NetFaults().Stats().NetDrops.Value(); d == 0 {
		t.Error("fault plan dropped no frames at a 5% rate")
	}
	if cli.Retransmits.Value() == 0 {
		t.Error("no retransmissions despite dropped frames")
	}
	// No call lost: nothing exhausted its retransmit budget.
	if f := cli.CallsFailed.Value(); f != 0 {
		t.Errorf("%d calls lost, want 0 (retransmission must recover)", f)
	}
	// No call duplicated: the server accepted each distinct call at most
	// once; retransmissions of served calls were absorbed by the dedup.
	if srv.CallsReceived.Value() > cli.CallsIssued.Value() {
		t.Errorf("server accepted %d calls from %d issued — a duplicate slipped the dedup",
			srv.CallsReceived.Value(), cli.CallsIssued.Value())
	}
	if cli.CallsCompleted.Value() > cli.CallsIssued.Value() {
		t.Errorf("client completed %d of %d issued calls — a reply was double-counted",
			cli.CallsCompleted.Value(), cli.CallsIssued.Value())
	}
	if srv.BadPayload.Value() != 0 {
		t.Errorf("%d corrupted payloads crossed the faulted wire", srv.BadPayload.Value())
	}
	for i, c := range checkers {
		if c.Checked() == 0 {
			t.Errorf("machine %d oracle validated nothing", i)
		}
		if !c.Ok() {
			t.Errorf("machine %d coherence violation during faulted run: %v", i, c.First())
		}
	}
}
