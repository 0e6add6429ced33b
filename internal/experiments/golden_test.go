package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestFixedPriorityGolden is the bit-for-bit guarantee for refactors of
// the policy layer and the time-ownership contract: with the default
// policies (fixed-priority arbitration, migration-averse or oldest-first
// dispatch), every sweep experiment's Quick output must match the
// fixtures captured from the pre-refactor tree byte for byte. A diff
// here means the Arbiter/DispatchPolicy plumbing or the big-step device
// scan (the mdc fixture: a halted-CPU machine driven by the display
// controller alone) changed simulated behaviour, not just its packaging.
// The figure3 and figure4 fixtures drive caches by hand on a halted-CPU
// machine; figure4 pins the cycle at which each wait for the bus ends.
func TestFixedPriorityGolden(t *testing.T) {
	cases := []struct {
		fixture string
		run     func(Options) Outcome
	}{
		{"table1sim", Table1Sim},
		{"protocols", ProtocolComparison},
		{"migration", MigrationAblation},
		{"cvax", CVAXSpeedup},
		{"qbus", QBusLoad},
		{"make", ParallelMake},
		{"linesize", LineSizeAblation},
		{"onchipdata", OnChipDataAblation},
		{"mdc", MDCThroughput},
		{"figure3", Figure3},
		{"figure4", Figure4},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", "golden", tc.fixture+".txt"))
			if err != nil {
				t.Fatalf("reading fixture: %v", err)
			}
			got := tc.run(Options{}).Text
			if got != string(want) {
				t.Fatalf("%s output diverged from pre-policy-layer fixture\n--- got ---\n%s\n--- want ---\n%s",
					tc.fixture, got, want)
			}
		})
	}
}
