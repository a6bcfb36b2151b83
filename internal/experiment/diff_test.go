package experiment

import (
	"math"
	"strings"
	"testing"
)

func baseFigure() Figure {
	return Figure{
		ID:      "fig12",
		Columns: []string{"detected", "missed"},
		Rows: []Row{
			{Label: "raytrace", Values: []float64{0.75, 0.25}},
			{Label: "lu", Values: []float64{math.NaN(), 1}},
		},
	}
}

// TestDiffFiguresTolerance: an out-of-tolerance cell is flagged with its
// coordinates, and the same drift passes once the tolerance covers it.
func TestDiffFiguresTolerance(t *testing.T) {
	want := baseFigure()
	got := baseFigure()
	got.Rows[0].Values[0] = 0.8125 // drifted by exactly 0.0625

	diffs := DiffFigures(got, want, DiffOptions{})
	if len(diffs) != 1 {
		t.Fatalf("exact comparison: %d diffs, want 1: %v", len(diffs), diffs)
	}
	d := diffs[0]
	if d.Row != "raytrace" || d.Column != "detected" || d.Got != 0.8125 || d.Want != 0.75 {
		t.Fatalf("diff = %+v", d)
	}
	if s := d.String(); !strings.Contains(s, "raytrace") || !strings.Contains(s, "detected") {
		t.Fatalf("diff string %q lacks coordinates", s)
	}

	if diffs := DiffFigures(got, want, DiffOptions{Default: Tolerance{Abs: 0.0625}}); len(diffs) != 0 {
		t.Fatalf("abs tolerance 0.0625 still flags: %v", diffs)
	}
	if diffs := DiffFigures(got, want, DiffOptions{Default: Tolerance{Rel: 0.10}}); len(diffs) != 0 {
		t.Fatalf("rel tolerance 10%% still flags: %v", diffs)
	}
	if diffs := DiffFigures(got, want, DiffOptions{Default: Tolerance{Abs: 0.01}}); len(diffs) != 1 {
		t.Fatalf("abs tolerance 0.01 should still flag: %v", diffs)
	}
}

// TestDiffFiguresNaN: NaN cells (empty denominators) equal NaN baselines,
// but a NaN appearing where the baseline has a number is a regression.
func TestDiffFiguresNaN(t *testing.T) {
	want := baseFigure()
	got := baseFigure()
	if diffs := DiffFigures(got, want, DiffOptions{}); len(diffs) != 0 {
		t.Fatalf("identical figures (with NaN cells) differ: %v", diffs)
	}
	got.Rows[1].Values[1] = math.NaN() // baseline has 1 here
	diffs := DiffFigures(got, want, DiffOptions{Default: Tolerance{Abs: 100}})
	if len(diffs) != 1 {
		t.Fatalf("NaN vs number: %d diffs, want 1 regardless of tolerance: %v", len(diffs), diffs)
	}
}

// TestDiffFiguresStructural: shape mismatches are reported as structural
// diffs rather than silently skipped.
func TestDiffFiguresStructural(t *testing.T) {
	want := baseFigure()
	check := func(name string, mutate func(*Figure), substr string) {
		t.Helper()
		got := baseFigure()
		mutate(&got)
		diffs := DiffFigures(got, want, DiffOptions{Default: Tolerance{Abs: 1e9}})
		if len(diffs) == 0 {
			t.Fatalf("%s: no diff reported", name)
		}
		if diffs[0].Structural == "" || !strings.Contains(diffs[0].Structural, substr) {
			t.Fatalf("%s: diff = %+v, want structural mentioning %q", name, diffs[0], substr)
		}
	}
	check("id", func(f *Figure) { f.ID = "fig13" }, "id")
	check("columns", func(f *Figure) { f.Columns = f.Columns[:1] }, "column count")
	check("column name", func(f *Figure) { f.Columns[1] = "other" }, "column 1")
	check("rows", func(f *Figure) { f.Rows = f.Rows[:1] }, "row count")
	check("label", func(f *Figure) { f.Rows[0].Label = "barnes" }, "row 0")
	check("ragged", func(f *Figure) { f.Rows[0].Values = f.Rows[0].Values[:1] }, "values")
}

// TestDiffArtifacts: campaign comparability gates cell comparison — fresh
// runs under different flags are configuration skew, not regressions.
func TestDiffArtifacts(t *testing.T) {
	meta := testMeta()
	want := FigureArtifact(baseFigure(), meta)

	if diffs := DiffArtifacts(FigureArtifact(baseFigure(), meta), want, DiffOptions{}); len(diffs) != 0 {
		t.Fatalf("identical artifacts differ: %v", diffs)
	}

	other := meta
	other.Injections = 99
	diffs := DiffArtifacts(FigureArtifact(baseFigure(), other), want, DiffOptions{})
	if len(diffs) != 1 || diffs[0].Structural == "" {
		t.Fatalf("campaign mismatch diffs = %v", diffs)
	}

	rows := []DirectoryRow{{App: "lu", Requests: 1}}
	dWant := DirectoryArtifact(rows, 16, meta)
	dGot := DirectoryArtifact(rows, 8, meta)
	diffs = DiffArtifacts(dGot, dWant, DiffOptions{})
	if len(diffs) != 1 || !strings.Contains(diffs[0].Structural, "processor count") {
		t.Fatalf("sim-procs mismatch diffs = %v", diffs)
	}

	t1 := Table1Artifact([]Table1Row{{App: "lu"}}, meta)
	diffs = DiffArtifacts(t1, want, DiffOptions{})
	if len(diffs) != 1 || !strings.Contains(diffs[0].Structural, "kind") {
		t.Fatalf("kind mismatch diffs = %v", diffs)
	}
}
