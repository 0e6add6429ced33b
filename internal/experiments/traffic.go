package experiments

import (
	"fmt"
	"strings"

	"firefly/internal/cluster"
	"firefly/internal/rpc"
	"firefly/internal/stats"
	"firefly/internal/traffic"
)

// trafficFleet is the experiment's topology: a 16-machine fleet on four
// bridged segments — member 0 is the load-balancing front end, the
// other 15 serve — large enough that segment affinity, bridge
// crossings, and per-node imbalance are all visible.
const (
	trafficMachines = 16
	trafficSegments = 4
)

// TrafficLoad runs the fleet traffic engine at offered loads straddling
// the analytic capacity knee (0.4x, 0.8x, 1.5x): an open-loop session
// population, least-outstanding balancing, and a bounded server queue.
// The workload is the compile-farm class (make-only): every request and
// reply funnels through the front end's own Ethernet segment, and the
// 512-byte file/display classes saturate that 10 Mbit/s wire well
// before the 15 backends do — with 128-byte compile requests holding a
// server for a 40k-cycle build leaf, the knee sits at the servers and
// the admission bound is the active control. Below the knee, measured
// per-node utilization tracks the M/G/1 prediction and tail latency
// stays near service time; past it, an open-loop arrival process would
// collapse a FIFO fleet — the admission bound sheds the excess instead,
// holding goodput at capacity. The differential tests pin the same
// numbers byte-for-byte at every cluster worker count.
func TrafficLoad(o Options) Outcome {
	secs := o.Budget.seconds(0.25, 2.0)
	base := traffic.DefaultSpec()
	base.Mix = [traffic.NumClasses]int{0, 1, 0}
	base.Queue = 8
	knee := base.Predict(rpc.Config{}, trafficMachines-1).KneeSessionsPerSecond
	factors := []float64{0.4, 0.8, 1.5}

	type row struct {
		factor           float64
		pred             traffic.Prediction
		offered, goodput float64
		shed, failed     uint64
		p50, p95, p99    float64 // ms
		util             float64 // mean measured backend utilization
		segUtil          []float64
		bridged          uint64
	}
	rows := SweepItems(o, factors, func(f float64) row {
		spec := base
		spec.Rate = knee * f
		cl := cluster.New(spec.ClusterConfig(trafficMachines, trafficSegments, 11))
		eng := traffic.Attach(cl, spec)
		cl.RunSeconds(secs)

		var svc uint64
		for i := 1; i < cl.Size(); i++ {
			svc += cl.Node(i).Stats().ServiceCycles.Value()
		}
		util := 0.0
		if el := eng.Elapsed(); el > 0 {
			util = float64(svc) / float64(uint64(el)*uint64(cl.Size()-1))
		}
		h := eng.FleetHist()
		r := row{
			factor:  f,
			pred:    spec.Predict(rpc.Config{}, cl.Size()-1),
			offered: eng.OfferedLoad(),
			goodput: eng.Goodput(),
			shed:    eng.CallsShed(),
			failed:  eng.CallsFailed(),
			p50:     rpc.CyclesToUS(h.Percentile(0.50)) / 1000,
			p95:     rpc.CyclesToUS(h.Percentile(0.95)) / 1000,
			p99:     rpc.CyclesToUS(h.Percentile(0.99)) / 1000,
			util:    util,
		}
		for k := 0; k < cl.NumSegments(); k++ {
			r.segUtil = append(r.segUtil, cl.SegmentAt(k).Utilization())
		}
		if br := cl.Bridge(); br != nil {
			r.bridged = br.Stats().Forwarded.Value()
		}
		return r
	})

	t := stats.NewTable(
		fmt.Sprintf("Fleet traffic: %d machines, %d segments, mix %s, lb=%s, queue=%d (knee %.0f sessions/s)",
			trafficMachines, trafficSegments, "make:1", base.LB, base.Queue, knee),
		"load", "offered calls/s", "goodput", "shed", "failed",
		"p50 ms", "p95 ms", "p99 ms", "util", "rho pred", "seg util", "bridged")
	for _, r := range rows {
		segs := make([]string, len(r.segUtil))
		for k, u := range r.segUtil {
			segs[k] = fmt.Sprintf("%.2f", u)
		}
		t.AddRow(
			fmt.Sprintf("%.1fx", r.factor),
			fmt.Sprintf("%.0f", r.offered),
			fmt.Sprintf("%.0f", r.goodput),
			fmt.Sprintf("%d", r.shed),
			fmt.Sprintf("%d", r.failed),
			fmt.Sprintf("%.2f", r.p50),
			fmt.Sprintf("%.2f", r.p95),
			fmt.Sprintf("%.2f", r.p99),
			fmt.Sprintf("%.2f", r.util),
			fmt.Sprintf("%.2f", r.pred.Rho),
			strings.Join(segs, "/"),
			fmt.Sprintf("%d", r.bridged),
		)
	}
	text := t.String() + `
Open-loop arrivals: sessions appear at the offered rate whether or not
the fleet keeps up, so load past the knee cannot be absorbed by slowing
the clients. Below the knee the measured backend utilization tracks the
M/G/1 rho column and the tail is a few service times. Past it the
bounded server queues shed the excess as explicit rejections — goodput
holds near capacity instead of collapsing into retransmit storms, and
p99 stays bounded by the queue limit rather than growing without bound.
The seg-util column is why the workload is the compile farm: every call
crosses the balancer's own segment (seg 0) twice, so the 512-byte
file/display classes hit that 10 Mbit/s wire's knee first; 128-byte
compile requests keep the constraint at the servers, where admission
control can answer it.
`
	return Outcome{ID: "traffic", Title: "Fleet traffic: goodput, tail latency, and admission control", Text: text}
}
