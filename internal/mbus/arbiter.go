package mbus

import "math/bits"

// The hardware MBus resolved contention with fixed priority wired into
// the backplane ("the caches have fixed priority for access to the MBus",
// §5.2). The simulator makes the discipline a pluggable policy so the
// fairness studies the bus-service literature runs on exactly this
// shared-bus/private-cache configuration — priority vs. cyclic vs.
// arrival-order service — can be swept against protocol and load without
// touching the bus datapath.

// Arbiter decides which requesting port wins the bus on an arbitration
// cycle. It is the policy half of arbitration; the Bus owns the datapath
// (the request lines, grant delivery, wait accounting).
//
// Determinism contract: Grant must be a pure function of the arbiter's
// own state and its arguments — no clocks, no randomness that is not
// seeded through the arbiter itself — so that a machine rebuilt with a
// fresh arbiter and stepped through the same schedule reproduces the
// same grants (the property replay and the sweep engine rely on).
// Stateful arbiters keep all bookkeeping internal and restore their
// initial state on Reset.
type Arbiter interface {
	// Name returns the policy's stable identifier ("fixed", "rr",
	// "fcfs") used by flags, reports, and trace labels. It must be a
	// constant string (event emission may not allocate).
	Name() string
	// Grant selects the winning port. requests holds the request lines
	// that may arbitrate this cycle (raised, and past any retry
	// backoff); at least one is set. Grant must not keep or modify it.
	// last is the most recently granted port, -1 before the first grant.
	// The returned port must be requesting; the bus panics otherwise (a
	// policy granting an idle port is a bug, not a runtime condition).
	// Grant is called exactly once per arbitration cycle that has a
	// requester, so stateful arbiters may update their bookkeeping here.
	Grant(requests Lines, last int) int
	// Reset restores the arbiter's initial state. The bus calls it once
	// at attachment, so an arbiter value reused for a new machine starts
	// fresh.
	Reset()
}

// fixedPriority grants the lowest-numbered requesting port, as the
// hardware backplane did. It is stateless.
type fixedPriority struct{}

// NewFixedPriority returns the hardware's fixed-priority arbiter: the
// lowest-numbered requesting port always wins. Under saturation this
// starves high-numbered ports — the behaviour TestFCFSBoundsStarvation
// contrasts with the queueing disciplines.
func NewFixedPriority() Arbiter { return fixedPriority{} }

func (fixedPriority) Name() string { return "fixed" }

func (fixedPriority) Grant(requests Lines, _ int) int { return requests.Next(0) }

func (fixedPriority) Reset() {}

// roundRobin grants the first requesting port after the previous winner
// in cyclic order. All state it needs — the last grant — is passed in,
// so it is stateless.
type roundRobin struct{}

// NewRoundRobin returns the rotating-priority arbiter: the scan for a
// requester starts one past the last granted port, so continuous
// requesters are served cyclically.
func NewRoundRobin() Arbiter { return roundRobin{} }

func (roundRobin) Name() string { return "rr" }

func (roundRobin) Grant(requests Lines, last int) int {
	if p := requests.Next(last + 1); p >= 0 {
		return p
	}
	return requests.Next(0)
}

func (roundRobin) Reset() {}

// fcfsQueue grants in request-arrival order: the longest-waiting
// requester wins, regardless of port number — the first-come-first-served
// service discipline the bus-contention literature compares against
// priority service. Arrival is observed at arbitration cycles, so ports
// that raise their request lines while the bus is busy are all first
// seen at the next arbitration and enqueue in port order (the
// deterministic tie-break).
type fcfsQueue struct {
	queue  []int // waiting ports, oldest first
	queued Lines // the ports in queue
}

// NewFCFSQueue returns the first-come-first-served arbiter. Unlike fixed
// priority it cannot starve a port: once enqueued, a requester is served
// before every requester that arrives after it, which bounds the
// max/min per-port service ratio under saturation.
func NewFCFSQueue() Arbiter { return &fcfsQueue{} }

func (q *fcfsQueue) Name() string { return "fcfs" }

func (q *fcfsQueue) Grant(requests Lines, _ int) int {
	if len(q.queued) < len(requests) {
		q.queued = append(q.queued, make(Lines, len(requests)-len(q.queued))...)
	}
	// Drop queued ports that are no longer requesting, keeping arrival
	// order for the rest.
	kept := q.queue[:0]
	for _, p := range q.queue {
		if requests.Has(p) {
			kept = append(kept, p)
		} else {
			q.queued.clear(p)
		}
	}
	q.queue = kept
	// Enqueue new requesters; simultaneous arrivals tie-break in port
	// order.
	for w, word := range requests {
		for fresh := word &^ q.queued[w]; fresh != 0; fresh &= fresh - 1 {
			q.queue = append(q.queue, w<<6+bits.TrailingZeros64(fresh))
		}
		q.queued[w] |= word
	}
	if len(q.queue) == 0 {
		return -1
	}
	granted := q.queue[0]
	copy(q.queue, q.queue[1:])
	q.queue = q.queue[:len(q.queue)-1]
	q.queued.clear(granted)
	return granted
}

func (q *fcfsQueue) Reset() {
	q.queue = q.queue[:0]
	clear(q.queued)
}

// arbiterNames lists the known policies in presentation order.
var arbiterNames = []string{"fixed", "rr", "fcfs"}

// NewArbiterByName returns a fresh arbiter for the given policy name.
// The second result reports whether the name is known.
func NewArbiterByName(name string) (Arbiter, bool) {
	switch name {
	case "fixed":
		return NewFixedPriority(), true
	case "rr":
		return NewRoundRobin(), true
	case "fcfs":
		return NewFCFSQueue(), true
	}
	return nil, false
}

// ArbiterNames returns the known arbitration policy names in
// presentation order.
func ArbiterNames() []string { return append([]string(nil), arbiterNames...) }
