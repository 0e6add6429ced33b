// Package workload provides the programs the paper runs or describes:
// the Threads-package exerciser measured in Table 2, the parallel make of
// §6, Ultrix-style pipelines (§2), and the experimental parallel
// Modula-2+ compiler (§6). All run on the Topaz layer over the cycle
// simulator, so their synchronization and scheduling behaviour produces
// real bus and cache traffic.
package workload

import (
	"fmt"

	"firefly/internal/sim"
	"firefly/internal/topaz"
)

// ExerciserConfig tunes the Table 2 program: "an exerciser for the Topaz
// Threads package. The program forks a number of threads, each of which
// then executes and checks the results of Threads package primitives.
// There is a great deal of synchronization and process migration, since
// the threads deliberately block and reschedule themselves" (§5.3).
type ExerciserConfig struct {
	// Threads is the worker count (default 8).
	Threads int
	// Rounds is the iterations per worker (default 50).
	Rounds int
	// SharedFraction directs this fraction of each worker's data
	// references at shared kernel data (default 0.3, the heavy sharing
	// the measured program exhibits).
	SharedFraction float64
	// WorkingSetLines sizes each worker's private footprint (default 512
	// lines: large enough that context switching between workers churns
	// the 4096-line cache, the source of the paper's elevated one-CPU
	// miss rate).
	WorkingSetLines int
	// DriftProb is the per-reference working-set drift (default 0.1: the
	// 4-byte line exploits no spatial locality, so fresh data arrives one
	// miss per word, which is why the paper's measured miss rates are
	// "abnormally large" for a 16 KB cache).
	DriftProb float64
	// Seed drives the workers' lock-choice streams.
	Seed uint64
}

func (c ExerciserConfig) withDefaults() ExerciserConfig {
	if c.Threads == 0 {
		c.Threads = 8
	}
	if c.Rounds == 0 {
		c.Rounds = 50
	}
	if c.SharedFraction == 0 {
		c.SharedFraction = 0.3
	}
	if c.WorkingSetLines == 0 {
		c.WorkingSetLines = 512
	}
	if c.DriftProb == 0 {
		c.DriftProb = 0.1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

const (
	// exerciserMutexes is the shared lock pool size.
	exerciserMutexes = 4
	// computePerRound is each worker's per-round instruction count.
	computePerRound = 300
)

// Exerciser is an instantiated Table 2 workload.
type Exerciser struct {
	cfg     ExerciserConfig
	kernel  *topaz.Kernel
	mutexes []*topaz.Mutex
	cond    *topaz.CondVar
	condMu  *topaz.Mutex
	space   *topaz.AddressSpace
	workers []*topaz.Thread

	// counters protected by the mutex pool; the "checks the results"
	// part of the exerciser verifies them at the end.
	counters []uint64
	errors   []string
}

// NewExerciser forks the workers onto the kernel.
func NewExerciser(k *topaz.Kernel, cfg ExerciserConfig) *Exerciser {
	cfg = cfg.withDefaults()
	e := &Exerciser{
		cfg:      cfg,
		kernel:   k,
		cond:     k.NewCond("exerciser-rendezvous"),
		condMu:   k.NewMutex("exerciser-rendezvous-mu"),
		counters: make([]uint64, exerciserMutexes),
	}
	for i := 0; i < exerciserMutexes; i++ {
		e.mutexes = append(e.mutexes, k.NewMutex(fmt.Sprintf("exerciser-%d", i)))
	}
	space := k.NewSpace("exerciser", false)
	e.space = space
	for w := 0; w < cfg.Threads; w++ {
		rng := sim.NewRand(cfg.Seed + uint64(w)*977)
		t := k.Fork(e.workerProgram(rng), topaz.ThreadSpec{
			Name:            fmt.Sprintf("worker-%d", w),
			SharedFraction:  cfg.SharedFraction,
			WorkingSetLines: cfg.WorkingSetLines,
			DriftProb:       cfg.DriftProb,
		}, space)
		e.workers = append(e.workers, t)
	}
	// The rendezvous daemon periodically broadcasts the condition variable
	// so no worker is stranded in its final Wait after the signalling
	// rounds have finished; it exits once every worker is done.
	k.Fork(e.daemonProgram(), topaz.ThreadSpec{Name: "rendezvous-daemon", WorkingSetLines: 8}, space)
	return e
}

// daemonProgram loops lock/broadcast/unlock/compute until the workers are
// all done, then exits.
func (e *Exerciser) daemonProgram() topaz.Program {
	state := 0
	return topaz.ProgramFunc(func(*topaz.Thread) topaz.Action {
		switch state {
		case 0:
			if e.workersDone() {
				return topaz.Exit{}
			}
			state = 1
			return topaz.Lock{M: e.condMu}
		case 1:
			state = 2
			return topaz.Broadcast{CV: e.cond}
		case 2:
			state = 3
			return topaz.Unlock{M: e.condMu}
		default:
			state = 0
			return topaz.Compute{Instructions: 3000}
		}
	})
}

func (e *Exerciser) workersDone() bool {
	for _, t := range e.workers {
		if t.State() != topaz.Done {
			return false
		}
	}
	return true
}

// The fixed computes of a round, boxed once: converting a Compute to an
// Action allocates.
var (
	roundCompute topaz.Action = topaz.Compute{Instructions: computePerRound}
	tailCompute  topaz.Action = topaz.Compute{Instructions: computePerRound / 2}
)

// workerProgram builds one worker's action stream: lock a random mutex,
// bump its counter, compute against (heavily shared) data, occasionally
// rendezvous on the condition variable, yield to invite rescheduling.
// Every round reuses one action buffer, since LoopProgram drains a round
// before it asks for the next, and one counter-bump closure, which reads
// the round's mutex index.
func (e *Exerciser) workerProgram(rng *sim.Rand) topaz.Program {
	var mi int
	bump := topaz.Call{Fn: func() { e.counters[mi]++ }}
	wait := topaz.Action(topaz.Wait{CV: e.cond, M: e.condMu})
	acts := make([]topaz.Action, 0, 9)
	return topaz.LoopProgram(e.cfg.Rounds, func(round int) []topaz.Action {
		mi = rng.Intn(len(e.mutexes))
		mu := e.mutexes[mi]
		acts = append(acts[:0], topaz.Lock{M: mu}, bump, roundCompute, topaz.Unlock{M: mu})
		// Every few rounds, rendezvous: block on the condition variable
		// until another worker passes by and signals — the deliberate
		// block-and-reschedule of the measured program.
		switch {
		case round%5 == 2:
			acts = append(acts, topaz.Lock{M: e.condMu}, wait, topaz.Unlock{M: e.condMu})
		case round%5 == 4:
			acts = append(acts, topaz.Lock{M: e.condMu}, topaz.Broadcast{CV: e.cond}, topaz.Unlock{M: e.condMu})
		}
		return append(acts, topaz.Yield{}, tailCompute)
	})
}

// Step runs the machine for the given cycles, stopping at the first
// cycle at which every thread has finished (machine.Machine.RunUntil).
// It reports whether every thread finished. Rendezvous waiters are woken
// by the daemon thread, not by Step. Measurement harnesses use Step to
// pump the exerciser for a fixed interval regardless of completion.
func (e *Exerciser) Step(cycles uint64) bool {
	return e.kernel.Machine().RunUntil(e.kernel.Done, cycles)
}

// Run drives the kernel until the workers finish, then verifies the
// counters. It returns an error list (empty on success).
func (e *Exerciser) Run(maxCycles uint64) []string {
	if !e.Step(maxCycles) {
		e.errors = append(e.errors, "exerciser did not finish within the cycle budget")
	}
	var total uint64
	for _, c := range e.counters {
		total += c
	}
	want := uint64(e.cfg.Threads) * uint64(e.cfg.Rounds)
	if total != want {
		e.errors = append(e.errors,
			fmt.Sprintf("counter total %d, want %d: mutual exclusion failed", total, want))
	}
	return e.errors
}

// Counters returns the per-mutex counters.
func (e *Exerciser) Counters() []uint64 { return append([]uint64(nil), e.counters...) }
