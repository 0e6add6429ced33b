package check

import (
	"fmt"
	"testing"

	"firefly/internal/display"
	"firefly/internal/fs"
	"firefly/internal/machine"
	"firefly/internal/qbus"
	"firefly/internal/topaz"
	"firefly/internal/trace"
	"firefly/internal/workload"
)

// untilCase builds a machine and a predicate over it. Both twins of a
// case are built by the same function, so they start identical.
type untilCase struct {
	name string
	// budget is RunUntil's n; held is whether the predicate must hold
	// within it, and cycles the exact cycles RunUntil must run, or -1 for
	// a case that must run at least one.
	budget uint64
	held   bool
	cycles int64
	build  func() (*machine.Machine, func() bool)
}

// TestRunUntilMatchesStep pins Machine.RunUntil's stopping rule: one twin
// runs RunUntil, the other a Step loop that checks the predicate before
// every Step. They must stop at the same cycle with the same answer and
// the same full registry snapshot, and still agree after both run on
// past the stop. The predicates cover each kind of state the contract
// admits: a thread's exit, the kernel's Done and Stuck, the MDC's status
// word in memory, a result a program action writes after disk DMA, and
// the two edges (never true, true on entry). The machines are untraced,
// so Topaz's private runs engage.
func TestRunUntilMatchesStep(t *testing.T) {
	cases := []untilCase{
		{name: "thread exit", budget: 2_000_000, held: true, cycles: -1, build: func() (*machine.Machine, func() bool) {
			m, k := kernelMachine(3)
			workload.NewExerciser(k, workload.ExerciserConfig{Threads: 4, Rounds: 1_000_000, Seed: 4})
			th := k.Fork(topaz.Seq(topaz.Compute{Instructions: 20_001}, topaz.Yield{}, topaz.Compute{Instructions: 7}),
				topaz.ThreadSpec{Name: "short"}, nil)
			return m, func() bool { return th.State() == topaz.Done }
		}},
		{name: "kernel done", budget: 20_000_000, held: true, cycles: -1, build: func() (*machine.Machine, func() bool) {
			m, k := kernelMachine(3)
			workload.NewExerciser(k, workload.ExerciserConfig{Threads: 5, Rounds: 40, Seed: 6})
			return m, k.Done
		}},
		{name: "kernel stuck", budget: 2_000_000, held: true, cycles: -1, build: func() (*machine.Machine, func() bool) {
			m, k := kernelMachine(2)
			a, b := k.NewMutex("a"), k.NewMutex("b")
			k.Fork(topaz.Seq(topaz.Lock{M: a}, topaz.Compute{Instructions: 3_001}, topaz.Lock{M: b}), topaz.ThreadSpec{Name: "ab"}, nil)
			k.Fork(topaz.Seq(topaz.Lock{M: b}, topaz.Compute{Instructions: 2_999}, topaz.Lock{M: a}), topaz.ThreadSpec{Name: "ba"}, nil)
			return m, k.Stuck
		}},
		{name: "mdc status word", budget: 5_000_000, held: true, cycles: -1, build: func() (*machine.Machine, func() bool) {
			m := machine.New(machine.MicroVAXConfig(2))
			m.AttachSyntheticLoad(trace.SyntheticLoad{MissRate: 0.02, ShareFraction: 0.05})
			mdc := display.New(m.Clock(), m.Bus(), m.Memory(), display.Config{})
			m.AddDevice(mdc)
			mdc.Submit(display.CmdFill{R: display.Rect{W: 200, H: 100}, Op: display.OpSet})
			mdc.Submit(display.CmdPaintString{S: "status", X: 3, Y: 5, Op: display.OpXor})
			mdc.Submit(display.CmdBlt{R: display.Rect{X: 300, Y: 7, W: 40, H: 9}, SX: 1, SY: 2, Op: display.OpSrc})
			mem := m.Memory()
			return m, func() bool { return mem.Peek(display.StatusAddr) >= 3 }
		}},
		{name: "fs read with disk DMA", budget: 50_000_000, held: true, cycles: -1, build: func() (*machine.Machine, func() bool) {
			m, k := kernelMachine(2)
			maps := &qbus.MapRegisters{}
			engine := qbus.NewEngine(m.Clock(), m.Bus(), maps, 0)
			m.AddDevice(engine)
			disk := qbus.NewDisk(m.Clock(), m.Bus(), engine, qbus.DiskConfig{SeekCycles: 3000})
			m.AddDevice(disk)
			maps.MapRange(0, 0x700000, 1<<16)
			f := fs.New(k, disk, m.Memory(), maps, fs.Config{ReadAhead: 2}, nil)
			for lba := uint32(0); lba < 6; lba++ {
				words := make([]uint32, fs.BlockWords)
				for w := range words {
					words[w] = lba<<10 | uint32(w)
				}
				disk.LoadSector(lba, words)
			}
			res := &fs.ReadResult{}
			k.Fork(fs.ReadSequentialProgram(f, 0, 6, 300, res), topaz.ThreadSpec{Name: "scan"}, nil)
			return m, func() bool { return res.Done }
		}},
		{name: "never", budget: 123_457, cycles: 123_457, build: func() (*machine.Machine, func() bool) {
			m, k := kernelMachine(3)
			workload.NewExerciser(k, workload.ExerciserConfig{Threads: 4, Rounds: 1_000_000, Seed: 8})
			return m, func() bool { return false }
		}},
		{name: "on entry", budget: 100_001, held: true, cycles: 0, build: func() (*machine.Machine, func() bool) {
			m, k := kernelMachine(3)
			workload.NewExerciser(k, workload.ExerciserConfig{Threads: 4, Rounds: 1_000_000, Seed: 8})
			m.Run(5_003)
			return m, func() bool { return true }
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			fast, fu := tc.build()
			slow, su := tc.build()
			start := fast.Clock().Now()
			held := fast.RunUntil(fu, tc.budget)
			for i := uint64(0); i < tc.budget && !su(); i++ {
				slow.Step()
			}
			ran := uint64(fast.Clock().Now() - start)
			if got, want := fast.Clock().Now(), slow.Clock().Now(); got != want {
				t.Fatalf("RunUntil stopped at cycle %d, the Step loop at %d", got, want)
			}
			if held != su() || held != tc.held {
				t.Fatalf("RunUntil reported %v after %d cycles; the Step loop's predicate reads %v, want %v", held, ran, su(), tc.held)
			}
			if tc.cycles >= 0 && ran != uint64(tc.cycles) {
				t.Fatalf("RunUntil ran %d cycles, want %d", ran, tc.cycles)
			}
			if tc.cycles < 0 && ran == 0 {
				t.Fatal("the predicate held on entry: the case checks nothing")
			}
			if d := diffSnapshots(fast.Registry().Snapshot(), slow.Registry().Snapshot()); d != "" {
				t.Fatalf("after stopping at cycle %d: %s", fast.Clock().Now(), d)
			}
			const after = 10_007
			fast.Run(after)
			stepEach(slow)(after)
			if d := diffSnapshots(fast.Registry().Snapshot(), slow.Registry().Snapshot()); d != "" {
				t.Fatalf("%d cycles after the stop: %s", after, d)
			}
			if fr, sr := fmt.Sprint(fast.Report()), fmt.Sprint(slow.Report()); fr != sr {
				t.Errorf("reports diverged\n--- RunUntil ---\n%s\n--- Step ---\n%s", fr, sr)
			}
			t.Logf("stopped after %d cycles", ran)
		})
	}
}

// kernelMachine builds an untraced n-CPU MicroVAX machine with a Topaz
// kernel.
func kernelMachine(n int) (*machine.Machine, *topaz.Kernel) {
	m := machine.New(machine.MicroVAXConfig(n))
	return m, topaz.NewKernel(m, topaz.Config{Quantum: 1500, Seed: 2})
}
