package traffic

import (
	"container/heap"
	"fmt"
	"math"
	"strings"

	"firefly/internal/cluster"
	"firefly/internal/rpc"
	"firefly/internal/sim"
	"firefly/internal/stats"
)

// session is one simulated user: a class, a home segment, and a bounded
// run of sequential calls separated by think time. Sessions are a few
// dozen bytes and live on a heap keyed by next-issue cycle, so the
// population scales to millions without per-user goroutines or threads.
// A finished session's record is recycled for a later arrival, keeping
// its completion callback, bound once when the record was made.
type session struct {
	seq       uint64 // creation order; tie-break for equal due cycles
	class     Class
	home      int // home segment (affine routing)
	remaining int // calls left to issue
	due       sim.Cycle
	dst       int                   // the machine serving the call in flight
	done      func(rpc.CallOutcome) // the call's completion: onOutcome of this session
}

// sessionHeap orders sessions by (due, seq): earliest next issue first,
// creation order on ties, so the issue sequence is a pure function of
// engine state.
type sessionHeap []*session

func (h sessionHeap) Len() int { return len(h) }
func (h sessionHeap) Less(i, j int) bool {
	if h[i].due != h[j].due {
		return h[i].due < h[j].due
	}
	return h[i].seq < h[j].seq
}
func (h sessionHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *sessionHeap) Push(x interface{}) { *h = append(*h, x.(*session)) }
func (h *sessionHeap) Pop() interface{} {
	old := *h
	n := len(old)
	s := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return s
}

// classAccount accumulates per-class outcomes.
type classAccount struct {
	sessions  uint64
	issued    uint64
	completed uint64
	shed      uint64
	failed    uint64
	hist      stats.LogHist
}

// Engine drives an open-loop user population against a cluster. It is a
// machine device on the load-balancer machine (member 0): arrivals,
// class draws, routing decisions, and outcome accounting all happen
// inside that one machine's cycle loop, which is what makes the whole
// workload byte-identical at any cluster Workers setting — the parallel
// engine already guarantees each member machine's own execution is.
//
// Member 0 terminates the simulated users and issues their calls as real
// RPCs to the server members over the simulated wire, so the balancer's
// segment, the bridge crossings, and the DEQNA/DMA path are all part of
// what the experiment measures.
type Engine struct {
	spec     Spec
	profiles [NumClasses]Profile
	cl       *cluster.Cluster
	lb       *rpc.Node
	clock    *sim.Clock
	fleet    Fleet
	policy   Policy

	arrivalRand *sim.Rand // inter-arrival gaps
	classRand   *sim.Rand // session class draws
	homeRand    *sim.Rand // session home-segment draws

	meanGapCycles float64
	nextArrival   sim.Cycle
	mixTotal      int

	ready   sessionHeap // sessions whose next issue is scheduled
	free    []*session  // finished sessions' records
	seq     uint64
	started sim.Cycle // attach cycle; elapsed and rates measure from here

	sessionsStarted  uint64
	sessionsFinished uint64
	class            [NumClasses]classAccount
	fleetHist        stats.LogHist
	outstandingPeak  []int // per machine index
}

// Attach builds the engine for spec, registers it as a device on the
// cluster's member 0, and starts the RPC server on every other member.
// The cluster should have been built with spec.NodePatch() so the
// servers carry the spec's admission bound and per-class service
// pricing. Panics on an invalid spec or a cluster too small to have
// backends, like the other config-time constructors in this repo.
func Attach(cl *cluster.Cluster, spec Spec) *Engine {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if cl.Size() < 2 {
		panic("traffic: need at least one backend besides the balancer")
	}
	e := &Engine{
		spec:     spec,
		profiles: Profiles(),
		cl:       cl,
		lb:       cl.Node(0),
		clock:    cl.Machine(0).Clock(),
		started:  cl.Machine(0).Clock().Now(),
	}
	e.fleet.Outstanding = make([]int, cl.Size())
	e.outstandingPeak = make([]int, cl.Size())
	e.fleet.SegOf = make([]int, cl.Size())
	for i := 0; i < cl.Size(); i++ {
		e.fleet.SegOf[i] = cl.SegmentOf(i)
		if i > 0 {
			e.fleet.Backends = append(e.fleet.Backends, i)
			if err := cl.Node(i).StartServer(); err != nil {
				panic(err)
			}
		}
	}
	p, ok := PolicyByName(spec.LB)
	if !ok {
		panic("traffic: unknown policy " + spec.LB)
	}
	e.policy = p
	for _, w := range spec.Mix {
		e.mixTotal += w
	}
	root := sim.NewRand(spec.Seed)
	e.arrivalRand = root.Split()
	e.classRand = root.Split()
	e.homeRand = root.Split()
	// Cycles per simulated second / arrivals per second.
	e.meanGapCycles = (1e9 / sim.CycleNS) / spec.Rate
	e.nextArrival = e.started + e.drawGap()
	cl.Machine(0).AddDevice(e)
	return e
}

// Spec returns the traffic specification the engine runs.
func (e *Engine) Spec() Spec { return e.spec }

// drawGap draws one exponential inter-arrival gap (a Poisson process in
// discrete cycles, floored at one cycle).
func (e *Engine) drawGap() sim.Cycle {
	u := e.arrivalRand.Float64()
	g := -math.Log(1-u) * e.meanGapCycles
	if g < 1 {
		return 1
	}
	if g > 1e18 {
		return sim.Cycle(1e18)
	}
	return sim.Cycle(g)
}

// drawClass draws a session class by mix weight.
func (e *Engine) drawClass() Class {
	r := e.classRand.Intn(e.mixTotal)
	for c, w := range e.spec.Mix {
		if r < w {
			return Class(c)
		}
		r -= w
	}
	return ClassFile // unreachable: weights sum to mixTotal
}

// Step implements machine.Device on the balancer machine: admit every
// arrival due by now and issue every session whose think time expired.
func (e *Engine) Step() {
	now := e.clock.Now()
	for e.nextArrival <= now {
		e.startSession()
		e.nextArrival += e.drawGap()
	}
	for len(e.ready) > 0 && e.ready[0].due <= now {
		s := heap.Pop(&e.ready).(*session)
		e.issueCall(s)
	}
}

// NextEvent implements machine.Device: the next arrival or the
// earliest scheduled issue, whichever is sooner. Arrivals never stop, so
// the engine always has a future event; the machine big-steps the gaps.
func (e *Engine) NextEvent(now sim.Cycle) sim.Cycle {
	ev := e.nextArrival
	if len(e.ready) > 0 && e.ready[0].due < ev {
		ev = e.ready[0].due
	}
	if ev <= now {
		return now + 1
	}
	return ev
}

// startSession admits one arriving user: draw its class and home
// segment, then issue its first call immediately.
func (e *Engine) startSession() {
	c := e.drawClass()
	var s *session
	if k := len(e.free); k > 0 {
		s = e.free[k-1]
		e.free[k-1] = nil
		e.free = e.free[:k-1]
	} else {
		s = &session{}
		s.done = func(o rpc.CallOutcome) { e.onOutcome(s, o) }
	}
	*s = session{
		seq:       e.seq,
		class:     c,
		home:      e.homeRand.Intn(e.cl.NumSegments()),
		remaining: e.profiles[c].CallsPerSession,
		done:      s.done,
	}
	e.seq++
	e.sessionsStarted++
	e.class[c].sessions++
	e.issueCall(s)
}

// issueCall routes one call for s through the policy and issues it on
// the balancer's RPC runtime. The outcome callback fires on this same
// machine's cycle loop when the reply (or rejection, or retransmit
// failure) lands.
func (e *Engine) issueCall(s *session) {
	s.remaining--
	prof := e.profiles[s.class]
	dst := e.policy.Pick(&e.fleet, s.home)
	e.fleet.Outstanding[dst]++
	if e.fleet.Outstanding[dst] > e.outstandingPeak[dst] {
		e.outstandingPeak[dst] = e.fleet.Outstanding[dst]
	}
	e.class[s.class].issued++
	s.dst = dst
	e.lb.Issue(dst, prof.PayloadBytes, prof.Proc, s.done)
}

// onOutcome accounts one call disposition and schedules the session's
// next call (or retires the session, freeing its record).
func (e *Engine) onOutcome(s *session, o rpc.CallOutcome) {
	e.fleet.Outstanding[s.dst]--
	acc := &e.class[s.class]
	switch {
	case o.Failed:
		acc.failed++
	case o.Shed:
		acc.shed++
	default:
		acc.completed++
		acc.hist.Observe(uint64(o.Latency))
		e.fleetHist.Observe(uint64(o.Latency))
	}
	if s.remaining > 0 {
		s.due = e.clock.Now() + sim.Cycle(e.profiles[s.class].ThinkCycles)
		heap.Push(&e.ready, s)
		return
	}
	e.sessionsFinished++
	e.free = append(e.free, s)
}

// ProcService prices every class's procedure number for the server
// runtime (rpc.NodeConfig.ProcService).
func (s Spec) ProcService() map[uint16]uint64 {
	ps := make(map[uint16]uint64, NumClasses)
	for _, p := range Profiles() {
		ps[p.Proc] = p.ExtraServiceCycles
	}
	return ps
}

// NodePatch returns the cluster.Config.NodePatch for this spec: server
// members get the admission bound and the per-class service pricing,
// while the balancer (member 0) keeps the base client configuration.
func (s Spec) NodePatch() func(i int, cfg rpc.NodeConfig) rpc.NodeConfig {
	ps := s.ProcService()
	return func(i int, cfg rpc.NodeConfig) rpc.NodeConfig {
		if i == 0 {
			return cfg
		}
		cfg.MaxQueue = s.Queue
		cfg.ProcService = ps
		return cfg
	}
}

// ClusterConfig returns the configuration of a fleet serving this spec:
// the given topology and seed, NodePatch, and a 2 000 000-cycle
// retransmit timer. Queueing delay near the admission bound approaches
// Queue×E[S]; the timer must stay far beyond it, or the latency tail
// measures duplicate suppression instead of the queue.
func (s Spec) ClusterConfig(machines, segments int, seed uint64) cluster.Config {
	cfg := cluster.Config{Machines: machines, Segments: segments, Seed: seed, NodePatch: s.NodePatch()}
	cfg.Node.RetransmitCycles = 2_000_000
	return cfg
}

// Accessors for tests and reports.

// SessionsStarted counts admitted users.
func (e *Engine) SessionsStarted() uint64 { return e.sessionsStarted }

// CallsIssued, CallsCompleted, CallsShed, CallsFailed sum the classes.
func (e *Engine) CallsIssued() uint64 {
	return e.sumClasses(func(a *classAccount) uint64 { return a.issued })
}
func (e *Engine) CallsCompleted() uint64 {
	return e.sumClasses(func(a *classAccount) uint64 { return a.completed })
}
func (e *Engine) CallsShed() uint64 {
	return e.sumClasses(func(a *classAccount) uint64 { return a.shed })
}
func (e *Engine) CallsFailed() uint64 {
	return e.sumClasses(func(a *classAccount) uint64 { return a.failed })
}

func (e *Engine) sumClasses(f func(*classAccount) uint64) uint64 {
	var t uint64
	for c := range e.class {
		t += f(&e.class[c])
	}
	return t
}

// FleetHist is the merged latency histogram of every completed
// (non-shed) call.
func (e *Engine) FleetHist() *stats.LogHist { return &e.fleetHist }

// OutstandingPeak is the balancer's peak in-flight count toward machine
// i.
func (e *Engine) OutstandingPeak(i int) int { return e.outstandingPeak[i] }

// InFlight is the balancer's total in-flight call count: issued calls
// that have not yet reached a disposition.
func (e *Engine) InFlight() int {
	t := 0
	for _, n := range e.fleet.Outstanding {
		t += n
	}
	return t
}

// Elapsed is the measurement window so far, in cycles.
func (e *Engine) Elapsed() sim.Cycle { return e.clock.Now() - e.started }

// elapsedSeconds converts the window to simulated seconds.
func (e *Engine) elapsedSeconds() float64 {
	return float64(e.Elapsed()) * sim.CycleNS / 1e9
}

// Goodput is completed (served, non-shed) calls per simulated second.
func (e *Engine) Goodput() float64 {
	if sec := e.elapsedSeconds(); sec > 0 {
		return float64(e.CallsCompleted()) / sec
	}
	return 0
}

// OfferedLoad is issued calls per simulated second.
func (e *Engine) OfferedLoad() float64 {
	if sec := e.elapsedSeconds(); sec > 0 {
		return float64(e.CallsIssued()) / sec
	}
	return 0
}

// ms renders a histogram percentile in milliseconds.
func ms(h *stats.LogHist, p float64) float64 {
	return rpc.CyclesToUS(h.Percentile(p)) / 1000
}

// Report renders the fleet traffic report: offered load vs goodput,
// shed and failed counts, fleet-wide and per-class latency percentiles,
// per-node saturation, and per-segment plus bridge utilization. The
// string is a pure function of simulation state — the determinism tests
// compare it byte-for-byte across worker counts.
func (e *Engine) Report() string {
	var b strings.Builder
	sec := e.elapsedSeconds()
	fmt.Fprintf(&b, "traffic %s\n", e.spec)
	fmt.Fprintf(&b, "elapsed %.3fs  sessions %d started / %d finished\n",
		sec, e.sessionsStarted, e.sessionsFinished)
	fmt.Fprintf(&b, "offered %.1f calls/s  goodput %.1f calls/s  shed %d  failed %d\n",
		e.OfferedLoad(), e.Goodput(), e.CallsShed(), e.CallsFailed())
	fmt.Fprintf(&b, "latency fleet p50 %.3fms p95 %.3fms p99 %.3fms mean %.3fms (n=%d)\n",
		ms(&e.fleetHist, 0.50), ms(&e.fleetHist, 0.95), ms(&e.fleetHist, 0.99),
		rpc.CyclesToUS(uint64(e.fleetHist.Mean()))/1000, e.fleetHist.Count())
	for _, c := range e.spec.MixClasses() {
		a := &e.class[c]
		fmt.Fprintf(&b, "class %-4s sessions %d calls %d ok %d shed %d failed %d p50 %.3fms p95 %.3fms p99 %.3fms\n",
			c, a.sessions, a.issued, a.completed, a.shed, a.failed,
			ms(&a.hist, 0.50), ms(&a.hist, 0.95), ms(&a.hist, 0.99))
	}
	elapsed := e.Elapsed()
	for _, i := range e.fleet.Backends {
		n := e.cl.Node(i)
		st := n.Stats()
		util := 0.0
		if elapsed > 0 {
			util = float64(st.ServiceCycles.Value()) / float64(elapsed)
		}
		fmt.Fprintf(&b, "node %2d seg %d: served %d shed %d util %.3f qpeak %d outpeak %d\n",
			i, e.fleet.SegOf[i], st.Served.Value(), st.CallsShed.Value(),
			util, n.QueuePeak(), e.outstandingPeak[i])
	}
	for k := 0; k < e.cl.NumSegments(); k++ {
		fmt.Fprintf(&b, "segment %d: util %.3f\n", k, e.cl.SegmentAt(k).Utilization())
	}
	if br := e.cl.Bridge(); br != nil {
		bs := br.Stats()
		fmt.Fprintf(&b, "bridge: forwarded %d unroutable %d\n",
			bs.Forwarded.Value(), bs.Unroutable.Value())
	}
	return b.String()
}
