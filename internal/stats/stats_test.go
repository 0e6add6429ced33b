package stats

import (
	"math"
	"strings"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter = %d, want 10", c.Value())
	}
}

func TestCounterPerSecond(t *testing.T) {
	var c Counter
	c.Add(1000)
	if got := c.PerSecond(2); got != 500 {
		t.Fatalf("PerSecond(2) = %v, want 500", got)
	}
	if got := c.PerSecond(0); got != 0 {
		t.Fatalf("PerSecond(0) = %v, want 0", got)
	}
}

func TestCounterPerSecondEdgeCases(t *testing.T) {
	var c Counter
	c.Add(1000)
	// Degenerate durations must yield 0, never NaN or Inf.
	for _, secs := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := c.PerSecond(secs); got != 0 {
			t.Fatalf("PerSecond(%v) = %v, want 0", secs, got)
		}
	}
	// A zero count over a real duration is a real rate of 0.
	var z Counter
	if got := z.PerSecond(3); got != 0 {
		t.Fatalf("zero counter PerSecond(3) = %v", got)
	}
	// Counts near the top of the uint64 range convert without overflow.
	big := Counter(math.MaxUint64)
	got := big.PerSecond(1)
	if math.IsInf(got, 0) || math.IsNaN(got) || got <= 0 {
		t.Fatalf("PerSecond of max counter = %v", got)
	}
	if rel := math.Abs(got-float64(math.MaxUint64)) / float64(math.MaxUint64); rel > 1e-15 {
		t.Fatalf("PerSecond of max counter off by %v relative", rel)
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(1, 4); got != 0.25 {
		t.Fatalf("Ratio(1,4) = %v", got)
	}
	if got := Ratio(3, 0); got != 0 {
		t.Fatalf("Ratio(3,0) = %v, want 0", got)
	}
}

func TestRatioEdgeCases(t *testing.T) {
	// Zero over zero is 0, not NaN.
	if got := Ratio(0, 0); got != 0 {
		t.Fatalf("Ratio(0,0) = %v, want 0", got)
	}
	// Operands near the top of the uint64 range divide through float64
	// without overflow; equal operands come out 1 exactly.
	if got := Ratio(math.MaxUint64, math.MaxUint64); got != 1 {
		t.Fatalf("Ratio(max,max) = %v, want 1", got)
	}
	got := Ratio(math.MaxUint64/2, math.MaxUint64)
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("Ratio near max = %v", got)
	}
	if math.Abs(got-0.5) > 1e-15 {
		t.Fatalf("Ratio(max/2, max) = %v, want ~0.5", got)
	}
	// Part greater than total is allowed and exceeds 1 (e.g. ticks over
	// instructions); it must still be finite.
	if got := Ratio(10, 3); got < 3.3 || got > 3.4 {
		t.Fatalf("Ratio(10,3) = %v", got)
	}
}

func TestMaxMinRatio(t *testing.T) {
	for _, tc := range []struct {
		vals []uint64
		want float64
	}{
		{nil, 0},
		{[]uint64{0, 0, 0}, 0},
		{[]uint64{4, 0, 2}, math.Inf(1)},
		{[]uint64{3, 6}, 2},
	} {
		if got := MaxMinRatio(tc.vals); got != tc.want {
			t.Errorf("MaxMinRatio(%v) = %v, want %v", tc.vals, got, tc.want)
		}
	}
}

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v", got)
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v, want 2", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table X", "NP", "L", "TPI")
	tb.AddRow("2", ".20", "13.3")
	tb.AddRow("12", ".78", "17.7")
	s := tb.String()
	if !strings.Contains(s, "Table X") {
		t.Fatalf("missing title:\n%s", s)
	}
	if !strings.Contains(s, "NP") || !strings.Contains(s, "TPI") {
		t.Fatalf("missing headers:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("want 5 lines (title, header, rule, 2 rows), got %d:\n%s", len(lines), s)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
}

func TestTableAddRowf(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRowf([]string{"%d", "%.2f"}, 7, 3.14159)
	if tb.Cell(0, 0) != "7" || tb.Cell(0, 1) != "3.14" {
		t.Fatalf("cells = %q, %q", tb.Cell(0, 0), tb.Cell(0, 1))
	}
	if tb.Cell(5, 5) != "" {
		t.Fatal("out-of-range cell not empty")
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("1")
	if tb.Cell(0, 2) != "" {
		t.Fatal("padding cell should be empty")
	}
	_ = tb.String() // must not panic
}

func TestFormatK(t *testing.T) {
	if got := FormatK(1_350_000); got != "1350" {
		t.Fatalf("FormatK = %q, want 1350", got)
	}
}
