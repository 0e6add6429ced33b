package machine

import (
	"fmt"
	"testing"

	"firefly/internal/core"
	"firefly/internal/cpu"
	"firefly/internal/mbus"
	"firefly/internal/sim"
	"firefly/internal/trace"
)

// stubScheduler runs each processor on its own static working set and
// grants sim.Never, the horizon of a machine with no sleeper, whenever
// every processor is private: not waiting, with every line of its set
// resident with local write permission. The processors have no hook, so
// a boundary is only counted.
type stubScheduler struct {
	m          *Machine
	sets       []*trace.WorkingSet
	boundaries uint64
}

func (s *stubScheduler) PrivateHorizon(now sim.Cycle) sim.Cycle {
	for i, ws := range s.sets {
		if s.m.CPU(i).Waiting() || !s.m.Cache(i).HitsLocally(ws.Lines()) {
			return now
		}
	}
	return sim.Never
}

func (s *stubScheduler) PrivateSet(proc int) *trace.WorkingSet { return s.sets[proc] }

func (s *stubScheduler) PrivateDone(proc int, boundaries uint64) { s.boundaries += boundaries }

// newStubMachine builds a two-processor machine whose processors draw
// from private static working sets, with a stubScheduler installed.
func newStubMachine(v cpu.Variant) (*Machine, *stubScheduler) {
	m := New(Config{Processors: 2, Variant: v, Protocol: core.Firefly{}, Seed: 3})
	s := &stubScheduler{m: m}
	m.AttachSources(func(i int, c *core.Cache) trace.Source {
		ws := trace.NewWorkingSet(trace.WorkingSetConfig{
			Base: mbus.Addr(0x40000 + i*0x1000), Bytes: 0x400, SetLines: 8, Seed: uint64(i) + 1,
		})
		s.sets = append(s.sets, ws)
		return ws
	})
	m.SetScheduler(s)
	return m, s
}

// TestPrivateRunsEngage: with a scheduler whose horizon is sim.Never,
// Run ticks the processors through private runs (a ceiling division of
// the horizon into tick boundaries would wrap there and never run them),
// in Run calls of many lengths, leaves every processor and cache exactly
// where stepping does, and allocates nothing.
func TestPrivateRunsEngage(t *testing.T) {
	for _, v := range []cpu.Variant{cpu.MicroVAX78032(), cpu.CVAX78034()} {
		fast, s := newStubMachine(v)
		slow, _ := newStubMachine(v)
		var instructions uint64
		for i, n := range []uint64{5_000, 1, 2, 3, 7_777, 64, 100_000, 1_001} {
			before := fast.CPU(0).Stats().Instructions + fast.CPU(1).Stats().Instructions
			fast.Run(n)
			stepN(slow, n)
			if i > 0 {
				instructions += fast.CPU(0).Stats().Instructions + fast.CPU(1).Stats().Instructions - before
			}
			for p := 0; p < 2; p++ {
				fs := fmt.Sprintf("%+v %+v", fast.CPU(p).Stats(), fast.Cache(p).Stats())
				ss := fmt.Sprintf("%+v %+v", slow.CPU(p).Stats(), slow.Cache(p).Stats())
				if fs != ss {
					t.Fatalf("%s: after Run(%d) processor %d diverged\nRun:  %s\nStep: %s", v.Name, n, p, fs, ss)
				}
			}
		}
		if fr, sr := fmt.Sprint(fast.Report()), fmt.Sprint(slow.Report()); fr != sr {
			t.Errorf("%s: reports diverged\n--- Run ---\n%s\n--- Step ---\n%s", v.Name, fr, sr)
		}
		if s.boundaries*10 < instructions*9 {
			t.Errorf("%s: private runs crossed %d boundaries of %d instructions after warm-up; want nearly all", v.Name, s.boundaries, instructions)
		}
		if allocs := testing.AllocsPerRun(20, func() { fast.Run(5_000) }); allocs != 0 {
			t.Errorf("%s: Run through private runs allocates %.1f times per call", v.Name, allocs)
		}
	}
}
