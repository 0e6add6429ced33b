package workload

import (
	"fmt"

	"firefly/internal/topaz"
)

// CompilerConfig describes the experimental parallel Modula-2+ compiler
// (§6): "quickly reads in the source file and then compiles each
// procedure body in parallel."
type CompilerConfig struct {
	// Procedures is the number of procedure bodies (default 12).
	Procedures int
	// ProcCost is the per-procedure compile cost (default 40_000).
	ProcCost uint64
}

// The compiler's serial phases, in instructions: the front end that
// reads the source, and the back end that emits after all bodies.
const (
	readCost = 20_000
	emitCost = 10_000
)

func (c CompilerConfig) withDefaults() CompilerConfig {
	if c.Procedures == 0 {
		c.Procedures = 12
	}
	if c.ProcCost == 0 {
		c.ProcCost = 40_000
	}
	return c
}

// CompilerResult reports a compile run.
type CompilerResult struct {
	// Compiled lists procedure indexes in completion order.
	Compiled []int
	// Cycles is the simulated wall time.
	Cycles uint64
	// OK reports completion within the budget.
	OK bool
}

// RunCompiler executes the parallel compile: a driver thread reads the
// source, forks one thread per procedure body, joins them all, and emits.
func RunCompiler(k *topaz.Kernel, cfg CompilerConfig, maxCycles uint64) CompilerResult {
	cfg = cfg.withDefaults()
	res := CompilerResult{}
	space := k.NewSpace("m2+cc", false)
	start := k.Machine().Clock().Now()

	handles := make([]*topaz.Handle, cfg.Procedures)
	acts := []topaz.Action{topaz.Compute{Instructions: readCost}}
	for i := 0; i < cfg.Procedures; i++ {
		i := i
		handles[i] = &topaz.Handle{}
		acts = append(acts, topaz.Fork{
			Prog: topaz.Seq(
				topaz.Compute{Instructions: cfg.ProcCost},
				topaz.Call{Fn: func() { res.Compiled = append(res.Compiled, i) }},
			),
			Spec:   topaz.ThreadSpec{Name: fmt.Sprintf("proc%d", i)},
			Handle: handles[i],
		})
	}
	for i := 0; i < cfg.Procedures; i++ {
		acts = append(acts, topaz.Join{Handle: handles[i]})
	}
	acts = append(acts, topaz.Compute{Instructions: emitCost})
	k.Fork(topaz.Seq(acts...), topaz.ThreadSpec{Name: "driver"}, space)

	res.OK = k.RunUntilDone(maxCycles)
	res.Cycles = uint64(k.Machine().Clock().Now() - start)
	return res
}
