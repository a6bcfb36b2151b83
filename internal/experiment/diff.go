package experiment

import (
	"fmt"
	"math"
)

// Tolerance bounds how far a measured cell may drift from its baseline and
// still count as equal. A cell passes when |got-want| <= Abs, or when
// |got-want| <= Rel*|want|, or when the values are exactly equal (so the
// zero Tolerance means exact comparison). NaN equals NaN: an empty
// denominator is the same outcome on both sides, not a regression.
type Tolerance struct {
	Abs float64 `json:"abs"`
	Rel float64 `json:"rel"`
}

func (t Tolerance) within(got, want float64) bool {
	if math.IsNaN(got) || math.IsNaN(want) {
		return math.IsNaN(got) && math.IsNaN(want)
	}
	if got == want {
		return true
	}
	d := math.Abs(got - want)
	return d <= t.Abs || d <= t.Rel*math.Abs(want)
}

// DiffOptions configures a comparison: Default bounds every cell.
type DiffOptions struct {
	Default Tolerance
}

// Diff is one disagreement between a fresh figure and its baseline: either a
// cell outside tolerance (Row/Column/Got/Want set) or a structural mismatch
// (Structural set) that makes cell comparison meaningless.
type Diff struct {
	ID         string  `json:"id"`
	Row        string  `json:"row,omitempty"`
	Column     string  `json:"column,omitempty"`
	Got        float64 `json:"got,omitempty"`
	Want       float64 `json:"want,omitempty"`
	Structural string  `json:"structural,omitempty"`
}

// String renders the diff for terminal output.
func (d Diff) String() string {
	if d.Structural != "" {
		return fmt.Sprintf("%s: %s", d.ID, d.Structural)
	}
	return fmt.Sprintf("%s: %s/%s: got %v, want %v", d.ID, d.Row, d.Column, d.Got, d.Want)
}

// DiffFigures compares a freshly computed figure against a baseline
// cell-by-cell and returns every disagreement (empty means equal within
// tolerance). Shape mismatches — different column sets, missing or reordered
// rows, ragged value counts — are reported as structural diffs; matching
// cells are then compared under the per-column tolerance. Row order is
// significant: campaigns emit rows in deterministic Apps order, so a
// reordering is itself a change worth flagging.
func DiffFigures(got, want Figure, o DiffOptions) []Diff {
	var diffs []Diff
	structural := func(format string, args ...any) {
		diffs = append(diffs, Diff{ID: want.ID, Structural: fmt.Sprintf(format, args...)})
	}
	if got.ID != want.ID {
		structural("figure id %q does not match baseline %q", got.ID, want.ID)
		return diffs
	}
	if len(got.Columns) != len(want.Columns) {
		structural("column count %d != baseline %d", len(got.Columns), len(want.Columns))
		return diffs
	}
	for i, c := range want.Columns {
		if got.Columns[i] != c {
			structural("column %d is %q, baseline has %q", i, got.Columns[i], c)
			return diffs
		}
	}
	if len(got.Rows) != len(want.Rows) {
		structural("row count %d != baseline %d", len(got.Rows), len(want.Rows))
		return diffs
	}
	for i, wr := range want.Rows {
		gr := got.Rows[i]
		if gr.Label != wr.Label {
			structural("row %d is %q, baseline has %q", i, gr.Label, wr.Label)
			continue
		}
		if len(gr.Values) != len(wr.Values) {
			structural("row %q has %d values, baseline %d", wr.Label, len(gr.Values), len(wr.Values))
			continue
		}
		for j, wv := range wr.Values {
			if !o.Default.within(gr.Values[j], wv) {
				col := fmt.Sprintf("col%d", j)
				if j < len(want.Columns) {
					col = want.Columns[j]
				}
				diffs = append(diffs, Diff{ID: want.ID, Row: wr.Label, Column: col,
					Got: gr.Values[j], Want: wv})
			}
		}
	}
	return diffs
}

// DiffArtifacts compares two artifacts: campaign comparability first (seed,
// scale, injections, app list — differing campaigns produce differing
// numbers by design, which is configuration skew, not regression), then the
// numeric figures under o.
func DiffArtifacts(got, want Artifact, o DiffOptions) []Diff {
	var diffs []Diff
	structural := func(format string, args ...any) {
		diffs = append(diffs, Diff{ID: want.ID, Structural: fmt.Sprintf(format, args...)})
	}
	if got.Kind != want.Kind {
		structural("kind %q does not match baseline %q", got.Kind, want.Kind)
		return diffs
	}
	if g, w := got.Campaign, want.Campaign; g.BaseSeed != w.BaseSeed || g.Scale != w.Scale ||
		g.Threads != w.Threads || g.Injections != w.Injections {
		structural("campaign config (seed/scale/threads/injections) %+v does not match baseline %+v", g, w)
		return diffs
	}
	if got.SimProcs != want.SimProcs {
		structural("simulated processor count %d does not match baseline %d", got.SimProcs, want.SimProcs)
		return diffs
	}
	return append(diffs, DiffFigures(got.Figure, want.Figure, o)...)
}
