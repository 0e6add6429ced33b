// Package experiments contains one driver per table and figure of the
// paper's evaluation plus the ablations DESIGN.md calls out. Each driver
// builds the systems it needs, runs the workload, and renders a report in
// the layout of the paper's artifact; cmd/tables and the repository-root
// benchmarks are thin wrappers around these drivers. The experiment IDs
// match DESIGN.md's per-experiment index.
package experiments

import (
	"fmt"
	"strings"

	"firefly/internal/mbus"
	"firefly/internal/topaz"
)

// Outcome is one experiment's rendered result.
type Outcome struct {
	// ID is the DESIGN.md experiment identifier (e.g. "table1").
	ID string
	// Title is the human heading.
	Title string
	// Text is the rendered report.
	Text string
}

// String renders the outcome with its heading.
func (o Outcome) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n%s", o.ID, o.Title, o.Text)
	return b.String()
}

// Budget scales experiment run lengths: Quick for tests and smoke runs,
// Full for report-quality numbers.
type Budget int

const (
	// Quick runs short measurement intervals (seconds of CPU time).
	Quick Budget = iota
	// Full runs the intervals used for EXPERIMENTS.md.
	Full
)

// cycles picks a cycle budget.
func (b Budget) cycles(quick, full uint64) uint64 {
	if b == Quick {
		return quick
	}
	return full
}

// seconds picks a simulated-seconds budget.
func (b Budget) seconds(quick, full float64) float64 {
	if b == Quick {
		return quick
	}
	return full
}

// Options is everything a run may vary. Drivers read nothing else, so
// each is a pure function of its Options. The zero value runs the Quick
// budget with one sweep worker per CPU, a single Ethernet segment and
// PolicySweep's full axes.
type Options struct {
	// Budget scales run lengths.
	Budget Budget
	// Workers bounds the sweep worker pool; 0 means one per CPU
	// (runtime.GOMAXPROCS). Output is identical for any value.
	Workers int
	// Segments is the cluster experiment's Ethernet segment count: 0 or
	// 1 is one shared wire, 2 puts client and server on bridged wires.
	Segments int
	// Arbs and Scheds restrict PolicySweep's arbitration and dispatch
	// axes to the named policies; empty keeps the full axis.
	Arbs, Scheds []string
}

// Validate reports the first option no driver can honour.
func (o Options) Validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("workers must be >= 0 (0 = one per CPU), got %d", o.Workers)
	}
	if o.Segments < 0 || o.Segments > 2 {
		return fmt.Errorf("segments must be 0-2 (the cluster experiment has two machines), got %d", o.Segments)
	}
	for _, a := range o.Arbs {
		if _, ok := mbus.NewArbiterByName(a); !ok {
			return fmt.Errorf("unknown arbiter %q (known: %v)", a, mbus.ArbiterNames())
		}
	}
	for _, s := range o.Scheds {
		if _, ok := topaz.PolicyByName(s); !ok {
			return fmt.Errorf("unknown dispatch policy %q (known: %v)", s, topaz.PolicyNames())
		}
	}
	return nil
}

// Runner is a named experiment driver.
type Runner struct {
	ID   string
	Run  func(Options) Outcome
	Note string
}

// All returns every experiment in DESIGN.md order.
func All() []Runner {
	return []Runner{
		{"table1", Table1, "Table 1: estimated performance (analytic model)"},
		{"table1sim", Table1Sim, "Table 1 cross-check by cycle simulation"},
		{"table2", Table2, "Table 2: measured performance (threads exerciser)"},
		{"figure3", Figure3, "Figure 3: cache line states"},
		{"figure4", Figure4, "Figure 4: MBus timing"},
		{"figure2", Figure2, "Figure 2: internal structure of Topaz (live)"},
		{"protocols", ProtocolComparison, "coherence protocol bake-off"},
		{"migration", MigrationAblation, "scheduler migration-avoidance ablation"},
		{"cvax", CVAXSpeedup, "CVAX upgrade speedup"},
		{"rpc", RPCThroughput, "RPC data-transfer bandwidth vs outstanding calls"},
		{"cluster", ClusterRPC, "multi-Firefly RPC over the shared Ethernet (§6)"},
		{"traffic", TrafficLoad, "fleet traffic: open-loop load, balancing, admission control"},
		{"qbus", QBusLoad, "fully loaded QBus vs MBus bandwidth"},
		{"mdc", MDCThroughput, "display controller paint rates"},
		{"make", ParallelMake, "parallel make speedup"},
		{"gc", GCOffload, "concurrent garbage collection offload"},
		{"fileio", FileIO, "file system read-ahead / write-behind"},
		{"syscall", SyscallEmulation, "Ultrix system-call emulation cost"},
		{"linesize", LineSizeAblation, "cache line size ablation (analytic + simulated)"},
		{"onchipdata", OnChipDataAblation, "CVAX on-chip data-cache ablation"},
		{"policysweep", PolicySweep, "bus arbitration x dispatch policy fairness sweep"},
		{"coherencecheck", CoherenceCheck, "randomized coherence stress under the checking oracle"},
		{"verify", VerifyProtocols, "exhaustive small-model verification of the protocol suite"},
		{"faultsweep", FaultSweep, "fault-injection sweep with recovery, oracle attached"},
	}
}

// ByID returns the runner with the given ID, or nil.
func ByID(id string) *Runner {
	for _, r := range All() {
		if r.ID == id {
			r := r
			return &r
		}
	}
	return nil
}
