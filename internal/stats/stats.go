// Package stats provides the counter and reporting primitives shared by
// the Firefly simulator's measurement harnesses. The hardware Firefly was
// instrumented with "a counter connected to the hardware" (paper §5.3);
// this package is the software stand-in: cheap integer counters, derived
// rates, and fixed-width table rendering for regenerating the paper's
// tables.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Counter is a monotonically increasing event count.
type Counter uint64

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { *c += Counter(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { *c++ }

// Value returns the current count.
func (c Counter) Value() uint64 { return uint64(c) }

// PerSecond converts the count into an events-per-second rate over the
// given simulated duration in seconds. Durations that cannot yield a
// meaningful rate — zero, negative, or NaN — return 0 rather than
// propagating NaN/Inf into reports; an infinite duration likewise rates
// 0. Counts up to the full uint64 range convert through float64 (at most
// 1 ulp of rounding, never overflow).
func (c Counter) PerSecond(seconds float64) float64 {
	if !(seconds > 0) { // catches zero, negative, and NaN
		return 0
	}
	return float64(c) / seconds
}

// Ratio returns c divided by total, or 0 when total is zero. Both
// operands convert through float64, so counts near the top of the uint64
// range divide without overflow (with at most 1 ulp of rounding).
func Ratio(c, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(c) / float64(total)
}

// MaxMinRatio returns the max/min ratio of vals — the fairness statistic
// of the scheduling reports: 1 is perfectly fair, +Inf marks a starved
// entry (a zero among non-zeros), and 0 means empty or all-zero
// (undefined).
func MaxMinRatio(vals []uint64) float64 {
	if len(vals) == 0 {
		return 0
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		lo = min(lo, v)
		hi = max(hi, v)
	}
	if hi == 0 {
		return 0
	}
	if lo == 0 {
		return math.Inf(1)
	}
	return float64(hi) / float64(lo)
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Table renders aligned text tables in the style of the paper's Table 1
// and Table 2: a header row followed by value rows, columns right-aligned.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row of pre-formatted cells. Short rows are padded.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// AddRowf appends a row, formatting each cell with the matching verb in
// formats. Numeric cells typically use "%.2f" or "%d".
func (t *Table) AddRowf(formats []string, values ...any) {
	cells := make([]string, len(values))
	for i, v := range values {
		f := "%v"
		if i < len(formats) && formats[i] != "" {
			f = formats[i]
		}
		cells[i] = fmt.Sprintf(f, v)
	}
	t.AddRow(cells...)
}

// NumRows reports the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Cell returns the cell at row r, column c ("" when out of range).
func (t *Table) Cell(r, c int) string {
	if r < 0 || r >= len(t.rows) || c < 0 || c >= len(t.rows[r]) {
		return ""
	}
	return t.rows[r][c]
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// FormatK formats a per-second rate as the paper's "K refs/sec" unit.
func FormatK(rate float64) string {
	return fmt.Sprintf("%.0f", rate/1000)
}
