package mod2

import (
	"firefly/internal/sim"
	"firefly/internal/topaz"
)

// MutatorConfig tunes a mutator thread.
type MutatorConfig struct {
	// Ops is the number of heap operations to perform.
	Ops int
	// CostPerOp is the computation between heap operations, in
	// instructions (default 300). The "in-line cost of reference counted
	// assignments" is charged separately per assignment.
	CostPerOp uint64
	// Seed drives the operation mix.
	Seed uint64
}

func (c MutatorConfig) withDefaults() MutatorConfig {
	if c.Ops == 0 {
		c.Ops = 200
	}
	if c.CostPerOp == 0 {
		c.CostPerOp = 300
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

const (
	// assignCost is the RC bookkeeping cost per counted assignment, in
	// instructions.
	assignCost = 12
	// maxRoots bounds the mutator's live root set.
	maxRoots = 24
	// cycleEvery makes every n'th allocation pair a dropped cycle that
	// only the trace-and-sweep collector can reclaim.
	cycleEvery = 5
)

// MutatorProgram returns a Topaz program performing a random mix of
// allocations, counted reference assignments, and root drops against the
// heap — a Modula-2+ application's storage behaviour. Every heap
// operation happens under the runtime lock; every counted assignment
// pays its in-line cost.
func MutatorProgram(h *Heap, cfg MutatorConfig) topaz.Program {
	cfg = cfg.withDefaults()
	rng := sim.NewRand(cfg.Seed)
	alloc, even := sim.NewChance(0.45), sim.NewChance(0.5)
	var held []int
	var assignsThisOp uint64

	mutate := func() {
		assignsThisOp = 0
		switch {
		case len(held) < 2 || (len(held) < maxRoots && rng.Hit(alloc)):
			// Allocate; every few allocations, build a cyclic pair and
			// drop it — garbage only the tracer can reclaim.
			if int(h.stats.Allocs)%cycleEvery == cycleEvery-1 {
				a := h.Alloc()
				b := h.Alloc()
				if a >= 0 && b >= 0 {
					h.Link(a, b)
					h.Link(b, a)
					assignsThisOp += 2
					h.DropRoot(a)
					h.DropRoot(b)
				} else {
					if a >= 0 {
						h.DropRoot(a)
					}
					if b >= 0 {
						h.DropRoot(b)
					}
				}
				return
			}
			if s := h.Alloc(); s >= 0 {
				held = append(held, s)
			}
		case rng.Hit(even):
			// Counted assignment: link one held object to another.
			from := held[rng.Intn(len(held))]
			to := held[rng.Intn(len(held))]
			h.Link(from, to)
			assignsThisOp++
		case rng.Hit(even):
			// Remove an edge if the chosen object has one.
			from := h.Object(held[rng.Intn(len(held))])
			if targets := from.Refs(); len(targets) > 0 {
				h.Unlink(from.Slot(), targets[rng.Intn(len(targets))])
				assignsThisOp++
			}
		default:
			// Drop a root: the frame returned.
			i := rng.Intn(len(held))
			h.DropRoot(held[i])
			held = append(held[:i], held[i+1:]...)
		}
	}

	op := 0
	state := 0
	return topaz.ProgramFunc(func(*topaz.Thread) topaz.Action {
		switch state {
		case 0:
			if op >= cfg.Ops {
				state = 4
				return topaz.Call{Fn: func() {
					// Final frames return: drop every remaining root.
					for _, s := range held {
						h.DropRoot(s)
					}
					held = nil
				}}
			}
			op++
			state = 1
			return topaz.Lock{M: h.Mu}
		case 1:
			state = 2
			return topaz.Call{Fn: mutate}
		case 2:
			state = 3
			return topaz.Unlock{M: h.Mu}
		case 3:
			state = 0
			return topaz.Compute{Instructions: cfg.CostPerOp + assignsThisOp*assignCost}
		default:
			return topaz.Exit{}
		}
	})
}

// CollectorConfig tunes the concurrent collector thread.
type CollectorConfig struct {
	// Stop ends the collector when it reports true (checked between
	// batches). nil runs forever.
	Stop func() bool
}

const (
	// collectBatch is objects marked or swept per lock acquisition: small
	// batches keep the runtime lock available to the mutator.
	collectBatch = 16
	// batchCost is the collector's computation per batch, in instructions.
	batchCost = 200
	// idleSleep is the timer pause between GC cycles in bus cycles (5 ms):
	// the collector paces itself to the application's garbage rate
	// instead of spinning.
	idleSleep = 50_000
)

// CollectorProgram returns the concurrent trace-and-sweep collector as a
// Topaz program: it repeatedly takes the runtime lock, advances the
// marking or sweeping by one batch, releases the lock, and computes —
// interleaving with the mutator exactly as the Modula-2+ collector did.
func CollectorProgram(h *Heap, cfg CollectorConfig) topaz.Program {
	state := 0
	marking := false
	idle := false
	return topaz.ProgramFunc(func(*topaz.Thread) topaz.Action {
		switch state {
		case 0:
			if cfg.Stop != nil && cfg.Stop() {
				return topaz.Exit{}
			}
			state = 1
			return topaz.Lock{M: h.Mu}
		case 1:
			state = 2
			return topaz.Call{Fn: func() {
				idle = false
				switch {
				case !h.Collecting():
					h.StartCycle()
					marking = true
				case marking:
					if h.MarkBatch(collectBatch) {
						marking = false
					}
				default:
					if h.SweepBatch(collectBatch) {
						idle = true // cycle finished: rest before the next
					}
				}
			}}
		case 2:
			state = 3
			return topaz.Unlock{M: h.Mu}
		default:
			state = 0
			if idle {
				return topaz.Sleep{Cycles: idleSleep}
			}
			return topaz.Compute{Instructions: batchCost}
		}
	})
}
