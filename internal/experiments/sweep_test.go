package experiments

import (
	"runtime"
	"testing"
)

func TestSweepOrdering(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 16} {
		got := Sweep(Options{Workers: workers}, 100, func(i int) int { return i * i })
		if len(got) != 100 {
			t.Fatalf("workers=%d: %d results, want 100", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestSweepEmpty(t *testing.T) {
	if got := Sweep(Options{}, 0, func(i int) int { return i }); got != nil {
		t.Fatalf("Sweep(0) = %v, want nil", got)
	}
	if got := SweepItems(Options{}, nil, func(s string) string { return s }); got != nil {
		t.Fatalf("SweepItems(nil) = %v, want nil", got)
	}
}

func TestSweepItemsOrdering(t *testing.T) {
	items := []string{"a", "b", "c", "d", "e"}
	got := SweepItems(Options{Workers: 4}, items, func(s string) string { return s + s })
	for i, s := range items {
		if got[i] != s+s {
			t.Fatalf("result[%d] = %q, want %q", i, got[i], s+s)
		}
	}
}

// TestSweepDeterministic is the sweep engine's central promise: every
// converted experiment produces byte-identical output whether its points
// run on one worker or on a full pool. Run with -race this also shakes
// out data races between concurrently built machines.
func TestSweepDeterministic(t *testing.T) {
	experiments := []struct {
		name string
		run  func(Options) Outcome
	}{
		{"Table1Sim", Table1Sim},
		{"ProtocolComparison", ProtocolComparison},
		{"LineSizeAblation", LineSizeAblation},
		{"ParallelMake", ParallelMake},
		{"CVAXSpeedup", CVAXSpeedup},
		{"MigrationAblation", MigrationAblation},
		{"OnChipDataAblation", OnChipDataAblation},
		{"QBusLoad", QBusLoad},
		{"PolicySweep", PolicySweep},
	}
	// Even on a small runner, oversubscribing exercises the concurrent
	// path and interleaves completion order.
	workers := max(4, runtime.GOMAXPROCS(0))
	for _, ex := range experiments {
		t.Run(ex.name, func(t *testing.T) {
			t.Parallel()
			serial := ex.run(Options{Workers: 1}).Text
			parallel := ex.run(Options{Workers: workers}).Text
			if serial != parallel {
				t.Fatalf("%s: output differs between 1 worker and %d workers\n--- serial ---\n%s\n--- parallel ---\n%s",
					ex.name, workers, serial, parallel)
			}
		})
	}
}
