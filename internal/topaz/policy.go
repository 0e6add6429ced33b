package topaz

import (
	"firefly/internal/obs"
)

// The Topaz dispatcher the paper describes is migration-averse ("the
// Taos scheduler makes some effort to avoid changing processors",
// §5.1); the pre-policy-layer simulator hard-coded that preference
// behind a boolean. DispatchPolicy makes the ready-queue discipline
// pluggable so scheduling can be swept as a fairness axis alongside bus
// arbitration — and so the fleet-level load balancers can reuse the same
// policy surface.

// DispatchPolicy selects which ready thread a processor runs next. It is
// consulted by Kernel.dispatch whenever a processor needs a thread and
// the ready queue is non-empty.
//
// Determinism contract: Pick must be a pure function of the kernel's
// observable scheduling state (the ready queue, thread affinity, the
// per-CPU service counters) and the policy's own state — no wall clocks,
// no unseeded randomness — so identical schedules replay identically.
// Pick must not mutate the ready queue; the kernel removes the chosen
// thread itself.
type DispatchPolicy interface {
	// Name returns the policy's stable identifier ("averse", "oldest",
	// "steal") used by flags and reports. It must be a constant string.
	Name() string
	// Pick returns the index into ready of the thread processor proc
	// should dispatch. ready is never empty and holds threads in arrival
	// order (oldest first). Out-of-range returns fall back to the oldest
	// thread.
	Pick(k *Kernel, proc int, ready []*Thread) int
}

// MigrationAverse is the Topaz policy: prefer the oldest ready thread
// that last ran on this processor (or has never run anywhere), falling
// back to the oldest thread when every ready thread has affinity
// elsewhere — "some effort" to avoid migration, not heroics.
type MigrationAverse struct{}

// Name implements DispatchPolicy.
func (MigrationAverse) Name() string { return "averse" }

// Pick implements DispatchPolicy.
func (MigrationAverse) Pick(_ *Kernel, proc int, ready []*Thread) int {
	for i, t := range ready {
		if t.lastProc == proc || t.lastProc == -1 {
			return i
		}
	}
	return 0
}

// OldestFirst always dispatches the oldest ready thread, ignoring
// affinity — the migration-heavy FIFO whose write-through cost §5.1
// explains. It is the kernel's default.
type OldestFirst struct{}

// Name implements DispatchPolicy.
func (OldestFirst) Name() string { return "oldest" }

// Pick implements DispatchPolicy.
func (OldestFirst) Pick(*Kernel, int, []*Thread) int { return 0 }

// WorkStealing is migration-averse until the processor would otherwise
// pick over threads with affinity elsewhere: then, instead of taking the
// oldest thread regardless of owner, the idle processor steals the
// oldest ready thread of the busiest peer — the processor with the most
// affine threads backed up in the ready queue (ties to the
// lowest-numbered peer). Stealing from the deepest backlog drains
// imbalance fastest while leaving lightly loaded peers' cache residency
// alone.
type WorkStealing struct{}

// Name implements DispatchPolicy.
func (WorkStealing) Name() string { return "steal" }

// Pick implements DispatchPolicy.
func (WorkStealing) Pick(k *Kernel, proc int, ready []*Thread) int {
	for i, t := range ready {
		if t.lastProc == proc || t.lastProc == -1 {
			return i
		}
	}
	// No affine or fresh thread: every ready thread last ran elsewhere.
	// Count each peer's backlog and steal the oldest thread of the
	// deepest one.
	var backlog [64]int // machine.Config.Validate caps processors at 64
	for _, t := range ready {
		if t.lastProc >= 0 && t.lastProc < len(backlog) {
			backlog[t.lastProc]++
		}
	}
	victim, depth := -1, 0
	for p, n := range backlog {
		if n > depth {
			victim, depth = p, n
		}
	}
	if victim < 0 {
		return 0
	}
	for i, t := range ready {
		if t.lastProc == victim {
			if tr := k.m.Tracer(); tr != nil {
				tr.Emit(obs.Event{
					Cycle: uint64(k.m.Clock().Now()),
					Kind:  obs.KindSchedSteal,
					Unit:  int32(proc),
					A:     uint64(t.id),
					B:     uint64(victim),
					Label: t.spec.Name,
				})
			}
			return i
		}
	}
	return 0
}

// policyNames lists the known dispatch policies in presentation order.
var policyNames = []string{"averse", "oldest", "steal"}

// PolicyByName returns a dispatch policy by its Name. The second result
// reports whether the name is known.
func PolicyByName(name string) (DispatchPolicy, bool) {
	switch name {
	case "averse":
		return MigrationAverse{}, true
	case "oldest":
		return OldestFirst{}, true
	case "steal":
		return WorkStealing{}, true
	}
	return nil, false
}

// PolicyNames returns the known dispatch policy names in presentation
// order.
func PolicyNames() []string { return append([]string(nil), policyNames...) }
