package workload

import (
	"fmt"
	"sort"

	"firefly/internal/topaz"
)

// Target is one node of a make dependency graph.
type Target struct {
	// Name identifies the target.
	Name string
	// Deps are names of targets that must finish first.
	Deps []string
	// Cost is the build work in instructions.
	Cost uint64
}

// MakeGraph is a build dependency DAG — the workload of the parallel make
// of §6: "we have implemented a parallel version of the Unix make utility,
// which forks multiple compilations in parallel when possible."
type MakeGraph struct {
	targets map[string]*Target
}

// NewMakeGraph returns an empty graph.
func NewMakeGraph() *MakeGraph {
	return &MakeGraph{targets: make(map[string]*Target)}
}

// Add inserts a target; duplicate names panic.
func (g *MakeGraph) Add(t Target) {
	if t.Name == "" {
		panic("workload: target needs a name")
	}
	if _, dup := g.targets[t.Name]; dup {
		panic(fmt.Sprintf("workload: duplicate target %q", t.Name))
	}
	if t.Cost == 0 {
		t.Cost = 10_000
	}
	g.targets[t.Name] = &t
}

// Targets returns the target names in sorted order.
func (g *MakeGraph) Targets() []string {
	names := make([]string, 0, len(g.targets))
	for n := range g.targets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Validate checks that dependencies exist and the graph is acyclic.
func (g *MakeGraph) Validate() error {
	const (
		unvisited = iota
		visiting
		done
	)
	state := make(map[string]int)
	var visit func(n string) error
	visit = func(n string) error {
		t, ok := g.targets[n]
		if !ok {
			return fmt.Errorf("workload: unknown target %q", n)
		}
		switch state[n] {
		case visiting:
			return fmt.Errorf("workload: dependency cycle through %q", n)
		case done:
			return nil
		}
		state[n] = visiting
		for _, d := range t.Deps {
			if err := visit(d); err != nil {
				return err
			}
		}
		state[n] = done
		return nil
	}
	for n := range g.targets {
		if err := visit(n); err != nil {
			return err
		}
	}
	return nil
}

// SerialCost returns the sum of all target costs (the one-processor lower
// bound in instructions).
func (g *MakeGraph) SerialCost() uint64 {
	var c uint64
	for _, t := range g.targets {
		c += t.Cost
	}
	return c
}

// CriticalPath returns the longest dependency chain cost (the infinite-
// processor lower bound).
func (g *MakeGraph) CriticalPath() uint64 {
	memo := make(map[string]uint64)
	var depth func(n string) uint64
	depth = func(n string) uint64 {
		if v, ok := memo[n]; ok {
			return v
		}
		t := g.targets[n]
		var best uint64
		for _, d := range t.Deps {
			if v := depth(d); v > best {
				best = v
			}
		}
		memo[n] = best + t.Cost
		return memo[n]
	}
	var best uint64
	for n := range g.targets {
		if v := depth(n); v > best {
			best = v
		}
	}
	return best
}

// MakeResult reports a parallel make run.
type MakeResult struct {
	// Finished lists targets in completion order.
	Finished []string
	// Cycles is the simulated makespan.
	Cycles uint64
	// OK reports whether the build completed within its budget.
	OK bool
}

// RunMake executes the graph on the kernel: one thread per target, each
// joining its dependencies before doing its work — the structure of the
// Topaz parallel make, where cheap threads make a thread-per-compilation
// natural. It returns the completion record.
func RunMake(k *topaz.Kernel, g *MakeGraph, maxCycles uint64) MakeResult {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	res := MakeResult{}
	handles := make(map[string]*topaz.Handle)
	names := g.Targets()
	for _, n := range names {
		handles[n] = &topaz.Handle{}
	}
	space := k.NewSpace("pmake", false)
	start := k.Machine().Clock().Now()

	// Fork in dependency order so every Join target's handle is filled
	// before any joiner can reach it. (Topological order: repeatedly emit
	// targets whose deps are already emitted.)
	emitted := make(map[string]bool)
	for len(emitted) < len(names) {
		progress := false
		for _, n := range names {
			if emitted[n] {
				continue
			}
			ready := true
			for _, d := range g.targets[n].Deps {
				if !emitted[d] {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			t := g.targets[n]
			name := n
			var acts []topaz.Action
			for _, d := range t.Deps {
				acts = append(acts, topaz.Join{Handle: handles[d]})
			}
			acts = append(acts,
				topaz.Compute{Instructions: t.Cost},
				topaz.Call{Fn: func() { res.Finished = append(res.Finished, name) }},
			)
			handles[n].T = k.Fork(topaz.Seq(acts...), topaz.ThreadSpec{Name: "make:" + n}, space)
			emitted[n] = true
			progress = true
		}
		if !progress {
			panic("workload: topological emit stalled (cycle despite validation?)")
		}
	}

	// Run until every build target's thread exits (service daemons — the
	// file system, a garbage collector — may keep running; they are not
	// part of the build). Exit is final, so the scan resumes at the first
	// target still running.
	built := 0
	allBuilt := func() bool {
		for built < len(names) && handles[names[built]].T.State() == topaz.Done {
			built++
		}
		return built == len(names)
	}
	k.Machine().RunUntil(func() bool { return allBuilt() || k.Stuck() }, maxCycles)
	res.OK = allBuilt()
	res.Cycles = uint64(k.Machine().Clock().Now() - start)
	return res
}

// StandardBuild returns a representative build DAG: a scanner and parser
// feed a few middle-end passes, which fan out into many leaf compilations
// linked at the end — the shape of rebuilding a Modula-2+ package tree.
func StandardBuild(leaves int, leafCost uint64) *MakeGraph {
	if leaves < 1 {
		panic("workload: need at least one leaf")
	}
	if leafCost == 0 {
		leafCost = 30_000
	}
	g := NewMakeGraph()
	g.Add(Target{Name: "scan", Cost: leafCost / 2})
	g.Add(Target{Name: "parse", Deps: []string{"scan"}, Cost: leafCost / 2})
	var leafNames []string
	for i := 0; i < leaves; i++ {
		n := fmt.Sprintf("obj%02d", i)
		g.Add(Target{Name: n, Deps: []string{"parse"}, Cost: leafCost})
		leafNames = append(leafNames, n)
	}
	g.Add(Target{Name: "link", Deps: leafNames, Cost: leafCost})
	return g
}
