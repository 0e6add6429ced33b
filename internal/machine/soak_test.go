package machine

import (
	"testing"

	"firefly/internal/core"
	"firefly/internal/mbus"
	"firefly/internal/qbus"
	"firefly/internal/sim"
	"firefly/internal/trace"
)

// TestDMACoherenceSoak floods a running multiprocessor with DMA traffic —
// reads and writes through the QBus engine hitting the same region the
// CPUs' synthetic workload uses — and verifies the machine-wide coherence
// invariants at the end: all cached copies of a line agree, dirty lines
// are unique, and clean lines agree with memory.
func TestDMACoherenceSoak(t *testing.T) {
	for _, lineWords := range []int{1, 4} {
		lineWords := lineWords
		t.Run(map[int]string{1: "one-word", 4: "four-word"}[lineWords], func(t *testing.T) {
			cfg := MicroVAXConfig(4)
			cfg.LineWords = lineWords
			m := New(cfg)
			m.AttachSyntheticLoad(trace.SyntheticLoad{MissRate: 0.2, ShareFraction: 0.2, SharedReadFraction: 0.2})

			maps := &qbus.MapRegisters{}
			engine := qbus.NewEngine(m.Clock(), m.Bus(), maps, 4)
			m.AddDevice(engine)
			// The DMA window overlaps the CPUs' shared region (0x8000..)
			// and the first private region, so device traffic collides
			// with cached lines constantly.
			maps.MapRange(0, 0x8000, 1<<16)

			rng := sim.NewRand(77)
			var pump func(bool)
			pump = func(bool) {
				words := 16
				data := make([]uint32, words)
				toMem := rng.Hit(sim.NewChance(0.5))
				if toMem {
					for i := range data {
						data[i] = rng.Uint64AsWord()
					}
				}
				engine.Submit(&qbus.Transfer{
					Device: "soak", ToMemory: toMem,
					QAddr: uint32(rng.Intn(1024)) * 64,
					Words: words, Data: data, OnDone: pump,
				})
			}
			pump(false)

			m.Run(400_000)

			// Quiesce: stop CPUs, let in-flight work drain.
			for _, p := range m.Processors() {
				p.Halt()
			}
			m.Run(5_000)

			checkMachineCoherence(t, m)
			if engine.Stats().WordsMoved.Value() == 0 {
				t.Fatal("soak moved no DMA data")
			}
		})
	}
}

// checkMachineCoherence verifies the Firefly invariants across every line
// resident in any cache.
func checkMachineCoherence(t *testing.T, m *Machine) {
	t.Helper()
	type holder struct {
		cpu   int
		state core.State
		word  uint32
	}
	seen := make(map[mbus.Addr][]holder)
	lw := m.Cache(0).LineWords()
	for ci := 0; ci < m.Config().Processors; ci++ {
		c := m.Cache(ci)
		for idx := 0; idx < c.Lines(); idx++ {
			base, ok := c.ResidentLine(idx)
			if !ok {
				continue
			}
			for w := 0; w < lw; w++ {
				a := base + mbus.Addr(w*4)
				word, _ := c.PeekWord(a)
				seen[a] = append(seen[a], holder{ci, c.LineState(a), word})
			}
		}
	}
	checked := 0
	for a, hs := range seen {
		dirty := 0
		for _, h := range hs {
			if h.state.IsDirty() {
				dirty++
			}
		}
		for i := 1; i < len(hs); i++ {
			if hs[i].word != hs[0].word {
				t.Fatalf("addr %v: divergent copies %v", a, hs)
			}
		}
		if dirty > 1 {
			t.Fatalf("addr %v: multiple dirty holders %v", a, hs)
		}
		if dirty == 1 && len(hs) > 1 {
			t.Fatalf("addr %v: dirty but shared %v", a, hs)
		}
		if dirty == 0 {
			if mw := m.Memory().Peek(a); mw != hs[0].word {
				t.Fatalf("addr %v: clean copies %#x but memory %#x", a, hs[0].word, mw)
			}
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("soak only checked %d resident words", checked)
	}
}
