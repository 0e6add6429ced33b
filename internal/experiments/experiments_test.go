package experiments

import (
	"strings"
	"testing"
)

func TestAllRunnersQuick(t *testing.T) {
	for _, r := range All() {
		t.Run(r.ID, func(t *testing.T) {
			t.Parallel()
			out := r.Run(Options{})
			if out.ID != r.ID {
				t.Fatalf("outcome ID %q != runner ID %q", out.ID, r.ID)
			}
			if len(out.Text) < 50 {
				t.Fatalf("suspiciously short report:\n%s", out.Text)
			}
			if strings.Contains(out.Text, "FAIL") {
				t.Fatalf("report contains failed shape checks:\n%s", out.Text)
			}
			if !strings.Contains(out.String(), r.ID) {
				t.Fatal("String() missing the ID heading")
			}
		})
	}
}

func TestByID(t *testing.T) {
	if r := ByID("table1"); r == nil || r.ID != "table1" {
		t.Fatal("ByID(table1) failed")
	}
	if ByID("nope") != nil {
		t.Fatal("ByID of unknown experiment returned non-nil")
	}
}

func TestTable1ContainsPaperCells(t *testing.T) {
	out := Table1(Options{})
	for _, cell := range []string{"0.33", "13.9", "8.07", "Saturation"} {
		if !strings.Contains(out.Text, cell) {
			t.Fatalf("Table 1 report missing %q:\n%s", cell, out.Text)
		}
	}
}

func TestTable2ShapeChecksPass(t *testing.T) {
	out := Table2(Options{})
	if !strings.Contains(out.Text, "[ok  ]") || strings.Contains(out.Text, "[FAIL]") {
		t.Fatalf("Table 2 shape checks did not all pass:\n%s", out.Text)
	}
}

func TestFigure3AllArcsVerified(t *testing.T) {
	out := Figure3(Options{})
	if !strings.Contains(out.Text, "Every Figure 3 arc verified.") {
		t.Fatalf("figure 3 arcs failed:\n%s", out.Text)
	}
}

func TestFigure4ShowsFourPhases(t *testing.T) {
	out := Figure4(Options{})
	for _, want := range []string{"arbitrate+address", "tag probe", "MShared asserted", "data"} {
		if !strings.Contains(out.Text, want) {
			t.Fatalf("figure 4 trace missing %q:\n%s", want, out.Text)
		}
	}
	// The seeded MRead must be answered by the holding cache.
	if !strings.Contains(out.Text, "MRead") || !strings.Contains(out.Text, "MWrite") {
		t.Fatalf("figure 4 trace missing operations:\n%s", out.Text)
	}
}

func TestSimulateTable1PointPlausible(t *testing.T) {
	pt := SimulateTable1Point(4, 400_000)
	if pt.Load < 0.15 || pt.Load > 0.55 {
		t.Fatalf("4-CPU simulated load = %v", pt.Load)
	}
	if pt.TPI < 12 || pt.TPI > 18 {
		t.Fatalf("TPI = %v", pt.TPI)
	}
	if pt.TP < 2.5 || pt.TP > 4.0 {
		t.Fatalf("TP = %v", pt.TP)
	}
}

func TestMeasureExerciserSharing(t *testing.T) {
	row := MeasureExerciser(3, 100_000, 600_000)
	if row.MBusWritesShared == 0 {
		t.Fatal("exerciser measurement shows no sharing")
	}
	if row.BusLoad <= 0 {
		t.Fatal("no bus load measured")
	}
}

func TestPolicySweepAxes(t *testing.T) {
	out := PolicySweep(Options{Arbs: []string{"fixed"}, Scheds: []string{"oldest"}})
	// One arbiter x one dispatch policy leaves the 2 protocols x 2
	// footprints: the data rows sit between the header rule and the
	// first blank line.
	_, body, _ := strings.Cut(out.Text, "-\n")
	body, _, _ = strings.Cut(body, "\n\n")
	if rows := strings.Count(body, "\n") + 1; rows != 4 {
		t.Fatalf("restricted policy sweep rendered %d data rows, want 4:\n%s", rows, out.Text)
	}
	for _, o := range []Options{
		{Arbs: []string{"nope"}},
		{Scheds: []string{"nope"}},
	} {
		if err := o.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted an unknown policy name", o)
		}
	}
}
