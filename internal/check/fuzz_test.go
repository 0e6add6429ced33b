package check

import (
	"testing"

	"firefly/internal/coherence"
	"firefly/internal/core"
	"firefly/internal/mbus"
	"firefly/internal/memory"
	"firefly/internal/obs"
	"firefly/internal/sim"
)

// fuzzProtocols indexes the real suite for fuzz inputs.
var fuzzProtocols = coherence.All()

// FuzzCoherence decodes arbitrary bytes into a stress configuration plus
// an access schedule and runs it under full checking: any violation — or
// machine panic — on any decoded input is a coherence bug.
func FuzzCoherence(f *testing.F) {
	f.Add([]byte{0, 2, 7, 0, 0, 1, 10, 0, 1, 1, 20, 0, 0, 1, 30, 0})
	f.Add([]byte{3, 3, 1, 1, 2, 0, 5, 0, 1, 0, 6, 1, 0, 0, 7, 0, 2, 0, 8, 0})
	f.Add([]byte{2, 7, 255, 2, 0, 9, 1, 128, 6, 9, 2, 0, 3, 9, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		proto := fuzzProtocols[int(data[0])%len(fuzzProtocols)]
		cfg := StressConfig{
			Protocol:   proto.Name(),
			CPUs:       1 + int(data[1])%7,
			CacheLines: 8,
			LineWords:  1 << (data[3] % 3),
			PoolLines:  4,
			Seed:       uint64(data[2]) + 1,
			WalkEvery:  1,
		}
		var sched Schedule
		for i := 4; i+4 <= len(data) && len(sched) < 512; i += 4 {
			sched = append(sched, Op{
				CPU:     data[i] & 0x7f,
				AddrIdx: uint16(data[i+1]),
				Data:    uint32(data[i+2]) | uint32(data[i+3])<<8,
				Partial: data[i]>>7 == 1,
			})
		}
		if len(sched) == 0 {
			return
		}
		cfg.Ops = len(sched)
		res, err := RunSchedule(cfg, sched)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range res.Violations {
			t.Errorf("%s: %v", proto.Name(), v)
		}
	})
}

// puppet is a raw bus initiator: it issues an arbitrary MBus operation
// sequence with no cache in front of it, modeling a DMA-style agent. Every
// protocol must keep the caches coherent against it. It raises each
// operation on its request line as the previous one completes.
type puppet struct {
	line mbus.Line
	reqs []mbus.Request
	pos  int
}

func (p *puppet) BusAttach(l mbus.Line) { p.line = l }

// raise puts the next scripted operation, if any, on the line.
func (p *puppet) raise() {
	if p.pos < len(p.reqs) {
		p.line.Raise(p.reqs[p.pos], 0)
	}
}

func (p *puppet) BusComplete(mbus.Result) {
	p.pos++
	p.raise()
}

// FuzzBusOps interleaves raw MRead/MWrite bus operations (the QBus DMA
// vocabulary) with CPU cache traffic decoded from the fuzz input, across
// the whole protocol suite, and requires the oracle and the invariant
// walker to stay silent.
func FuzzBusOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 10, 0, 40, 3, 5, 6, 1, 7, 8})
	f.Add([]byte{4, 2, 4, 1, 99, 5, 2, 200, 0, 9, 3, 255, 7, 0, 0})
	f.Add([]byte{2, 4, 1, 8, 8, 3, 8, 9, 6, 8, 10, 0, 8, 11, 2, 8, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		proto := fuzzProtocols[int(data[0])%len(fuzzProtocols)]
		lineWords := 1 << (data[1] % 3)
		prof, ok := ProfileFor(proto)
		if !ok {
			t.Fatalf("no profile for %s", proto.Name())
		}

		clock := &sim.Clock{}
		mem := memory.NewMicroVAXSystem(4)
		bus := mbus.New(clock, nil, mem)
		const nCaches = 3
		caches := make([]*core.Cache, nCaches)
		for i := range caches {
			caches[i] = core.NewCacheGeometry(clock, proto, 8, lineWords)
			bus.Attach(caches[i], caches[i], nil)
		}
		pup := &puppet{}
		bus.Attach(pup, nil, nil)

		checker := New(caches, mem, bus, prof)
		checker.SetWalkEvery(1)
		tracer := obs.NewTracer(checker)
		bus.SetTracer(tracer)
		for i, c := range caches {
			c.SetTracer(tracer, i)
		}

		// A 4-line pool; half aliases the caches' sets to force victims.
		pool := make([]mbus.Addr, 0, 4*lineWords)
		for l := 0; l < 4; l++ {
			base := mbus.Addr(0x8000) + mbus.Addr(l/2*lineWords*4)
			if l%2 == 1 {
				base += mbus.Addr(8 * lineWords * 4)
			}
			for w := 0; w < lineWords; w++ {
				pool = append(pool, base+mbus.Addr(w*4))
			}
		}
		checker.Seed(pool)

		// Decode: 3-byte groups (selector, addr, data).
		type cacheOp struct {
			write bool
			addr  mbus.Addr
			data  uint32
		}
		queues := make([][]cacheOp, nCaches)
		for i := 2; i+3 <= len(data) && pup.pos+len(queues[0])+len(queues[1])+len(queues[2]) < 512; i += 3 {
			sel, ab, db := data[i], data[i+1], data[i+2]
			addr := pool[int(ab)%len(pool)]
			switch sel % 8 {
			case 0:
				pup.reqs = append(pup.reqs, mbus.Request{Op: mbus.MWrite, Addr: addr, Data: uint32(db) + 1})
			case 1:
				pup.reqs = append(pup.reqs, mbus.Request{Op: mbus.MRead, Addr: addr})
			default:
				ci := int(sel%8-2) % nCaches
				queues[ci] = append(queues[ci], cacheOp{write: sel%2 == 1, addr: addr, data: uint32(db) + 100})
			}
		}

		pup.raise()
		heads := make([]int, nCaches)
		for cyc := 0; cyc < 20000; cyc++ {
			clock.Tick()
			bus.Step()
			// A cache submits only outside a probe cycle, as a processor
			// does: a snoop probed this cycle commits in the next.
			for i, c := range caches {
				if !c.Busy() && !c.TagStoreBusyWithin(clock.Now(), 1) && heads[i] < len(queues[i]) {
					op := queues[i][heads[i]]
					heads[i]++
					c.Submit(core.Access{Write: op.write, Addr: op.addr, Data: op.data})
				}
			}
			done := pup.pos >= len(pup.reqs) && bus.NextEvent(clock.Now()) == sim.Never
			for i, c := range caches {
				done = done && !c.Busy() && heads[i] >= len(queues[i])
			}
			if done {
				break
			}
		}
		checker.Walk()
		for _, v := range checker.Violations() {
			t.Errorf("%s lw=%d: %v", proto.Name(), lineWords, v)
		}
	})
}
