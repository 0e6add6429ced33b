package workload

import (
	"testing"

	"firefly/internal/machine"
	"firefly/internal/topaz"
)

func newKernel(nproc int) *topaz.Kernel {
	m := machine.New(machine.MicroVAXConfig(nproc))
	return topaz.NewKernel(m, topaz.Config{Quantum: 1000})
}

func TestExerciserCompletesAndChecks(t *testing.T) {
	k := newKernel(4)
	e := NewExerciser(k, ExerciserConfig{Threads: 6, Rounds: 20})
	if errs := e.Run(400_000_000); len(errs) != 0 {
		t.Fatalf("exerciser errors: %v", errs)
	}
	var total uint64
	for _, c := range e.Counters() {
		total += c
	}
	if total != 120 {
		t.Fatalf("counter total = %d", total)
	}
}

func TestExerciserGeneratesSharingTraffic(t *testing.T) {
	k := newKernel(4)
	e := NewExerciser(k, ExerciserConfig{Threads: 6, Rounds: 20})
	if errs := e.Run(400_000_000); len(errs) != 0 {
		t.Fatalf("exerciser errors: %v", errs)
	}
	rep := k.Machine().Report()
	mean := rep.MeanCPU()
	if mean.MBusWritesShared == 0 {
		t.Fatal("exerciser produced no MShared write-throughs")
	}
	// The signature the paper observed: write-throughs dominate victim
	// writes because shared lines stay clean.
	if mean.MBusVictims > mean.MBusWritesShared+mean.MBusWritesClean {
		t.Fatalf("victims %v dominate write-throughs %v+%v",
			mean.MBusVictims, mean.MBusWritesShared, mean.MBusWritesClean)
	}
}

func TestMakeGraphValidate(t *testing.T) {
	g := NewMakeGraph()
	g.Add(Target{Name: "a"})
	g.Add(Target{Name: "b", Deps: []string{"a"}})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := NewMakeGraph()
	bad.Add(Target{Name: "x", Deps: []string{"nope"}})
	if err := bad.Validate(); err == nil {
		t.Fatal("missing dependency validated")
	}
	cyc := NewMakeGraph()
	cyc.Add(Target{Name: "p", Deps: []string{"q"}})
	cyc.Add(Target{Name: "q", Deps: []string{"p"}})
	if err := cyc.Validate(); err == nil {
		t.Fatal("cycle validated")
	}
}

func TestMakeGraphCosts(t *testing.T) {
	g := NewMakeGraph()
	g.Add(Target{Name: "a", Cost: 100})
	g.Add(Target{Name: "b", Deps: []string{"a"}, Cost: 200})
	g.Add(Target{Name: "c", Deps: []string{"a"}, Cost: 50})
	if g.SerialCost() != 350 {
		t.Fatalf("serial cost = %d", g.SerialCost())
	}
	if g.CriticalPath() != 300 {
		t.Fatalf("critical path = %d", g.CriticalPath())
	}
}

func TestMakeGraphDuplicatePanics(t *testing.T) {
	g := NewMakeGraph()
	g.Add(Target{Name: "a"})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate target accepted")
		}
	}()
	g.Add(Target{Name: "a"})
}

func TestRunMakeRespectsDependencies(t *testing.T) {
	k := newKernel(4)
	g := StandardBuild(6, 20_000)
	res := RunMake(k, g, 400_000_000)
	if !res.OK {
		t.Fatal("build did not finish")
	}
	if len(res.Finished) != len(g.Targets()) {
		t.Fatalf("finished %d of %d targets", len(res.Finished), len(g.Targets()))
	}
	pos := map[string]int{}
	for i, n := range res.Finished {
		pos[n] = i
	}
	if pos["scan"] > pos["parse"] {
		t.Fatal("parse finished before scan")
	}
	for n, p := range pos {
		if n != "scan" && n != "parse" && n != "link" && p < pos["parse"] {
			t.Fatalf("leaf %s finished before parse", n)
		}
	}
	if pos["link"] != len(res.Finished)-1 {
		t.Fatal("link did not finish last")
	}
}

func TestParallelMakeSpeedup(t *testing.T) {
	run := func(nproc int) uint64 {
		k := newKernel(nproc)
		res := RunMake(k, StandardBuild(8, 40_000), 2_000_000_000)
		if !res.OK {
			t.Fatalf("build on %d CPUs did not finish", nproc)
		}
		return res.Cycles
	}
	one := run(1)
	four := run(4)
	speedup := float64(one) / float64(four)
	if speedup < 2.0 {
		t.Fatalf("4-CPU speedup = %.2f, want >= 2", speedup)
	}
}

func TestPipelineDeliversInOrder(t *testing.T) {
	k := newKernel(4)
	res := RunPipeline(k, PipelineConfig{Stages: 3, Items: 25, CostPerItem: 500}, 600_000_000)
	if !res.OK {
		t.Fatal("pipeline did not finish")
	}
	if len(res.Output) != 25 {
		t.Fatalf("delivered %d items", len(res.Output))
	}
	for i, v := range res.Output {
		if v != i+3 { // each of 3 stages adds 1
			t.Fatalf("output[%d] = %d, want %d", i, v, i+3)
		}
	}
}

func TestPipelineParallelismHelps(t *testing.T) {
	run := func(nproc int) uint64 {
		k := newKernel(nproc)
		res := RunPipeline(k, PipelineConfig{Stages: 3, Items: 30, CostPerItem: 3000}, 2_000_000_000)
		if !res.OK {
			t.Fatalf("pipeline on %d CPUs did not finish", nproc)
		}
		return res.Cycles
	}
	one := run(1)
	four := run(4)
	if float64(one)/float64(four) < 1.5 {
		t.Fatalf("pipeline speedup = %.2f, want >= 1.5", float64(one)/float64(four))
	}
}

func TestCompilerParallelCompile(t *testing.T) {
	k := newKernel(4)
	res := RunCompiler(k, CompilerConfig{Procedures: 8}, 600_000_000)
	if !res.OK {
		t.Fatal("compile did not finish")
	}
	if len(res.Compiled) != 8 {
		t.Fatalf("compiled %d procedures", len(res.Compiled))
	}
	seen := map[int]bool{}
	for _, p := range res.Compiled {
		if seen[p] {
			t.Fatalf("procedure %d compiled twice", p)
		}
		seen[p] = true
	}
}

func TestCompilerSpeedup(t *testing.T) {
	run := func(nproc int) uint64 {
		k := newKernel(nproc)
		res := RunCompiler(k, CompilerConfig{Procedures: 8, ProcCost: 60_000}, 4_000_000_000)
		if !res.OK {
			t.Fatalf("compile on %d CPUs did not finish", nproc)
		}
		return res.Cycles
	}
	one := run(1)
	four := run(4)
	if float64(one)/float64(four) < 2.0 {
		t.Fatalf("compiler speedup = %.2f, want >= 2", float64(one)/float64(four))
	}
}

func TestSyscallNativeVsEmulated(t *testing.T) {
	// One processor: the emulated path's two context switches per call
	// (client -> Taos -> client) cannot hide behind an idle CPU — the
	// situation footnote 5 describes.
	native := RunSyscalls(newKernel(1), SyscallConfig{Calls: 60}, 200_000_000)
	emulated := RunSyscalls(newKernel(1), SyscallConfig{Calls: 60, Emulated: true}, 200_000_000)
	if !native.OK || !emulated.OK {
		t.Fatalf("runs incomplete: native=%v emulated=%v", native.OK, emulated.OK)
	}
	// Emulation pays the cross-address-space handoffs: clearly slower for
	// simple calls.
	if emulated.PerCall < native.PerCall*1.5 {
		t.Fatalf("emulated %.0f cycles/call not clearly above native %.0f",
			emulated.PerCall, native.PerCall)
	}
	// Long-running services amortize the handoff (footnote 5).
	longNative := RunSyscalls(newKernel(1), SyscallConfig{Calls: 30, ServiceCost: 20_000}, 400_000_000)
	longEmulated := RunSyscalls(newKernel(1), SyscallConfig{Calls: 30, ServiceCost: 20_000, Emulated: true}, 400_000_000)
	if !longNative.OK || !longEmulated.OK {
		t.Fatal("long-service runs incomplete")
	}
	shortRatio := emulated.PerCall / native.PerCall
	longRatio := longEmulated.PerCall / longNative.PerCall
	if longRatio >= shortRatio {
		t.Fatalf("long services should suffer less: short %.2fx, long %.2fx", shortRatio, longRatio)
	}
}

// TestExerciserRunStopsAtBudget: Run spends exactly its cycle budget
// when the workers cannot finish in it, and reports that they did not.
func TestExerciserRunStopsAtBudget(t *testing.T) {
	k := newKernel(2)
	e := NewExerciser(k, ExerciserConfig{Threads: 4, Rounds: 1000})
	start := k.Machine().Clock().Now()
	errs := e.Run(250_000)
	if got := k.Machine().Clock().Now() - start; got != 250_000 {
		t.Errorf("Run(250_000) advanced the clock %d cycles", got)
	}
	if len(errs) == 0 || errs[0] != "exerciser did not finish within the cycle budget" {
		t.Errorf("errors %q, want the unfinished-budget error first", errs)
	}
}

// TestExerciserStepAllocs bounds the heap allocations of a warm Step:
// the workers' rounds reuse their action buffers, closures and boxed
// actions, and the kernel's mutex and condition-variable queues are
// rings that reuse their arrays once warm, so a warm Step allocates
// almost nothing. Allocating per round, or a queue that regrows as it
// drains, would cost many times the bound.
func TestExerciserStepAllocs(t *testing.T) {
	k := newKernel(5)
	e := NewExerciser(k, ExerciserConfig{Threads: 16, Rounds: 1 << 20})
	e.Step(500_000)
	if allocs := testing.AllocsPerRun(5, func() { e.Step(200_000) }); allocs > 5 {
		t.Errorf("a warm 200k-cycle Step allocates %.0f times, want at most 5", allocs)
	}
}
