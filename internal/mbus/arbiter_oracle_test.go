package mbus

import (
	"math/rand"
	"testing"

	"firefly/internal/obs"
	"firefly/internal/sim"
)

// The reference arbiters below are the request-polling policies the
// bitset arbiters replaced: each scans a []bool with one element per
// port. They live only here, as the oracle the bitset Grant is checked
// against.

func refFixed(requests []bool, _ int) int {
	for i, r := range requests {
		if r {
			return i
		}
	}
	return -1
}

func refRoundRobin(requests []bool, last int) int {
	n := len(requests)
	for i := 0; i < n; i++ {
		p := (last + 1 + i) % n
		if p < 0 {
			p += n
		}
		if requests[p] {
			return p
		}
	}
	return -1
}

type refFCFS struct {
	queue  []int
	queued []bool
}

func (q *refFCFS) grant(requests []bool, _ int) int {
	n := len(requests)
	if len(q.queued) < n {
		q.queued = append(q.queued, make([]bool, n-len(q.queued))...)
	}
	kept := q.queue[:0]
	for _, p := range q.queue {
		if p < n && requests[p] {
			kept = append(kept, p)
		} else if p < len(q.queued) {
			q.queued[p] = false
		}
	}
	q.queue = kept
	for p := 0; p < n; p++ {
		if requests[p] && !q.queued[p] {
			q.queued[p] = true
			q.queue = append(q.queue, p)
		}
	}
	if len(q.queue) == 0 {
		return -1
	}
	granted := q.queue[0]
	copy(q.queue, q.queue[1:])
	q.queue = q.queue[:len(q.queue)-1]
	q.queued[granted] = false
	return granted
}

// refArbiter returns the reference for the named policy; fcfs is fresh.
func refArbiter(name string) func([]bool, int) int {
	switch name {
	case "fixed":
		return refFixed
	case "rr":
		return refRoundRobin
	case "fcfs":
		return (&refFCFS{}).grant
	}
	panic("no reference arbiter " + name)
}

// toLines packs one flag per port into a request-line set.
func toLines(reqs []bool) Lines {
	s := make(Lines, (len(reqs)+63)/64)
	for p, r := range reqs {
		if r {
			s[p>>6] |= 1 << (p & 63)
		}
	}
	return s
}

// oraclePorts are the port counts the oracle tests run: every count up
// to 130, so one, two and three words and each word boundary are covered.
const oraclePorts = 130

// TestArbiterMatchesReference feeds each bitset arbiter and its
// reference the same random sequence of request sets, each derived from
// the previous one by raising and dropping random lines, with last the
// previous grant or, one call in four, any value from -1 up (the first
// call starts from -1 or from a random port). The grants must be equal.
func TestArbiterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, name := range ArbiterNames() {
		for n := 1; n <= oraclePorts; n++ {
			arb, _ := NewArbiterByName(name)
			ref := refArbiter(name)
			reqs := make([]bool, n)
			last := -1
			if n%2 == 0 {
				last = rng.Intn(n)
			}
			density := 0.05 + 0.9*rng.Float64()
			for call := 0; call < 300; call++ {
				for k := rng.Intn(4); k >= 0; k-- {
					p := rng.Intn(n)
					reqs[p] = rng.Float64() < density
				}
				some := false
				for _, r := range reqs {
					some = some || r
				}
				if !some {
					reqs[rng.Intn(n)] = true
				}
				if call > 0 && rng.Intn(4) == 0 {
					last = rng.Intn(n+1) - 1
				}
				want := ref(reqs, last)
				if got := arb.Grant(toLines(reqs), last); got != want {
					t.Fatalf("%s, %d ports, call %d, last %d: Grant = %d, reference %d (requests %v)",
						name, n, call, last, got, want, reqs)
				}
				reqs[want] = false // the grant drops the winner's line
				last = want
			}
		}
	}
}

// lineScript raises each port's request line with random backoffs and
// replaces raised requests at random, and keeps the model the reference
// bus arbitrates from: per port, whether the line is up, its first
// arbitration cycle, and until when its granted operation holds the bus.
type lineScript struct {
	rng    *rand.Rand
	raised []bool
	at     []sim.Cycle
	doneAt []sim.Cycle // completion cycle of the port's operation in flight
	load   float64
}

// act runs after the bus step of cycle now: lines whose port is idle
// rise with probability load, a fifth of them to wait out a backoff of
// 1-8 cycles; a raised line is re-raised one time in fifty, with a new
// cycle. Each action goes to the real initiator and to the model.
func (s *lineScript) act(now sim.Cycle, ports []*testInitiator) {
	for p, ti := range ports {
		busy := now < s.doneAt[p]
		switch {
		case !s.raised[p] && !busy && s.rng.Float64() < s.load,
			s.raised[p] && s.rng.Intn(50) == 0:
			at := sim.Cycle(0)
			if s.rng.Intn(5) == 0 {
				at = now + 1 + sim.Cycle(s.rng.Intn(8))
			}
			s.raised[p], s.at[p] = true, at
			ti.line.Raise(Request{Op: MRead, Addr: Addr(p) << 4}, at)
		}
	}
}

// TestBusArbitrationMatchesReference runs a bus of 1-130 scripted
// initiators under each arbiter, and beside it the polling arbitration
// the request lines replaced: every idle cycle the reference gathers a
// []bool of the raised lines past their backoff, asks the reference
// arbiter, and charges a wait to every requester but the winner. Grants,
// per-port wait counts and the raised lines must agree cycle by cycle.
func TestBusArbitrationMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, name := range ArbiterNames() {
		for n := 1; n <= oraclePorts; n++ {
			arb, _ := NewArbiterByName(name)
			ref := refArbiter(name)
			clock := &sim.Clock{}
			b := New(clock, arb, newFlatMemory())
			granted := -1
			b.SetTracer(obs.NewTracer(obs.ObserverFunc(func(e obs.Event) {
				if e.Kind == obs.KindBusGrant {
					granted = int(e.Unit)
				}
			})))
			ports := make([]*testInitiator, n)
			for i := range ports {
				ports[i] = &testInitiator{}
				b.Attach(ports[i], nil, nil)
			}
			s := &lineScript{
				rng:    rng,
				raised: make([]bool, n),
				at:     make([]sim.Cycle, n),
				doneAt: make([]sim.Cycle, n),
				load:   0.002 + 0.3*rng.Float64(),
			}
			waits := make([]uint64, n)
			reqs := make([]bool, n)
			last, busyTill := -1, sim.Cycle(0)
			for cyc := 0; cyc < 400; cyc++ {
				clock.Tick()
				now := clock.Now()
				granted = -1
				b.Step()
				want := -1
				if now > busyTill {
					nreq := 0
					for p := range reqs {
						reqs[p] = s.raised[p] && s.at[p] <= now
						if reqs[p] {
							nreq++
						}
					}
					if nreq > 0 {
						want = ref(reqs, last)
						if nreq > 1 {
							for p, r := range reqs {
								if r && p != want {
									waits[p]++
								}
							}
						}
						s.raised[want] = false
						s.doneAt[want] = now + OpCycles - 1
						busyTill, last = now+OpCycles-1, want
					}
				}
				if granted != want {
					t.Fatalf("%s, %d ports, cycle %d: bus granted %d, reference %d", name, n, now, granted, want)
				}
				st := b.Stats()
				for p := range waits {
					if st.WaitPerPort[p] != waits[p] {
						t.Fatalf("%s, %d ports, cycle %d: port %d waited %d, reference %d",
							name, n, now, p, st.WaitPerPort[p], waits[p])
					}
					if at, up := b.Raised(p); up != s.raised[p] || up && at != s.at[p] {
						t.Fatalf("%s, %d ports, cycle %d: port %d line up=%v at %d, reference up=%v at %d",
							name, n, now, p, up, at, s.raised[p], s.at[p])
					}
				}
				s.act(now, ports)
			}
		}
	}
}
