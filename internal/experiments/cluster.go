package experiments

import (
	"fmt"

	"firefly/internal/cluster"
	"firefly/internal/rpc"
	"firefly/internal/stats"
)

// ClusterRPC reproduces §6 end to end: two Fireflies on the simulated
// 10 Mbit/s Ethernet, RPC calls marshalled into machine memory, DMA'd
// through the DEQNA, serialized on the shared wire, served on Topaz
// worker threads, and answered with ID-matched replies. The sustained
// payload bandwidth is swept against concurrent caller threads and held
// next to the analytic pipeline of the `rpc` experiment — the paper's
// "4.6 megabits per second using an average of three concurrent
// threads" should appear as a plateau from three threads on, in both
// columns. With o.Segments == 2 the client and server land on separate
// wires joined by the store-and-forward bridge, so every frame pays two
// serializations.
func ClusterRPC(o Options) Outcome {
	secs := o.Budget.seconds(0.4, 2)
	threads := []int{1, 2, 3, 4, 6}
	segments := max(o.Segments, 1)

	type row struct {
		threads            int
		mbps, analytic     float64
		latencyUS          float64
		wireUtil           float64
		calls, retransmits uint64
	}
	rows := SweepItems(o, threads, func(n int) row {
		cl := cluster.New(cluster.Config{Seed: 6, Segments: segments})
		if err := cl.Node(1).StartServer(); err != nil {
			panic(err)
		}
		if err := cl.Node(0).StartCallers(n, 1, 0); err != nil {
			panic(err)
		}
		cl.RunSeconds(secs)
		cli := cl.Node(0).Stats()
		return row{
			threads:     n,
			mbps:        float64(cli.BytesMoved.Value()) * 8 / secs / 1e6,
			analytic:    rpc.Run(rpc.Config{}, n, secs).Mbps,
			latencyUS:   cl.Node(0).MeanLatencyUS(),
			wireUtil:    cl.Segment().Utilization(),
			calls:       cli.CallsCompleted.Value(),
			retransmits: cli.Retransmits.Value(),
		}
	})

	title := "Cluster RPC over the shared Ethernet (2 Fireflies, 1 KB calls)"
	if segments > 1 {
		title = "Cluster RPC across bridged Ethernet segments (2 Fireflies, 1 KB calls)"
	}
	t := stats.NewTable(title,
		"threads", "wire Mbit/s", "analytic Mbit/s", "delta", "latency (µs)", "wire util", "calls")
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%d", r.threads),
			fmt.Sprintf("%.2f", r.mbps),
			fmt.Sprintf("%.2f", r.analytic),
			fmt.Sprintf("%+.1f%%", (r.mbps-r.analytic)/r.analytic*100),
			fmt.Sprintf("%.0f", r.latencyUS),
			fmt.Sprintf("%.2f", r.wireUtil),
			fmt.Sprintf("%d", r.calls),
		)
	}
	text := t.String() + `
Every byte crosses the simulated wire: client marshal into NIC buffers,
DEQNA DMA, CSMA/CD serialization at one longword per 32 cycles, receive
DMA, in-order reassembly, and dispatch onto Topaz worker threads. The
plateau from three threads on is the per-connection server stage
saturating at ~4.6 Mbit/s of payload (§6); the cycle-level cluster and
the analytic pipeline agree within the differential test's 15% band.
`
	if segments > 1 {
		text += `Client and server sit on separate segments here (-segments): every
frame is captured by the store-and-forward bridge and re-serialized on
the far wire, so latency carries an extra frame time and the analytic
single-wire column is only an upper bound.
`
	}
	return Outcome{ID: "cluster", Title: "Cluster RPC throughput (simulated wire)", Text: text}
}
