package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"text/tabwriter"
)

// Figure is one reproduced table or figure: rows of labelled values plus
// explanatory notes. The json tags are the stable wire encoding used by
// exported benchmark artifacts (see artifact.go).
type Figure struct {
	ID      string   `json:"id"` // e.g. "fig12"
	Title   string   `json:"title"`
	Columns []string `json:"columns"`
	Rows    []Row    `json:"rows"`
	Notes   []string `json:"notes,omitempty"`
}

// Row is one labelled series of values.
type Row struct {
	Label  string
	Values []float64
}

// rowJSON is Row's wire shape: JSON has no NaN, so empty-denominator cells
// (the ones Percent renders as "-") travel as null.
type rowJSON struct {
	Label  string     `json:"label"`
	Values []*float64 `json:"values"`
}

// MarshalJSON implements json.Marshaler, mapping non-finite values to null.
func (r Row) MarshalJSON() ([]byte, error) {
	rj := rowJSON{Label: r.Label, Values: make([]*float64, len(r.Values))}
	for i, v := range r.Values {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			rj.Values[i] = &v
		}
	}
	return json.Marshal(rj)
}

// UnmarshalJSON implements json.Unmarshaler, mapping null cells back to NaN
// so that encode → decode → encode is byte-identical.
func (r *Row) UnmarshalJSON(b []byte) error {
	var rj rowJSON
	if err := json.Unmarshal(b, &rj); err != nil {
		return err
	}
	r.Label = rj.Label
	r.Values = nil
	if rj.Values != nil {
		r.Values = make([]float64, len(rj.Values))
	}
	for i, p := range rj.Values {
		if p == nil {
			r.Values[i] = math.NaN()
		} else {
			r.Values[i] = *p
		}
	}
	return nil
}

// Percent formats v (a ratio) as a percentage cell; NaN renders as "-".
func Percent(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", v*100)
}

// Render writes the figure as an aligned text table.
func (f *Figure) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s — %s\n", strings.ToUpper(f.ID), f.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "app")
	for _, c := range f.Columns {
		fmt.Fprintf(tw, "\t%s", c)
	}
	fmt.Fprintln(tw)
	for _, r := range f.Rows {
		fmt.Fprintf(tw, "%s", r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(tw, "\t%s", Percent(v))
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, n := range f.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// ratio divides, yielding NaN for an empty denominator so tables render "-".
func ratio(num, den int) float64 {
	if den == 0 {
		return math.NaN()
	}
	return float64(num) / float64(den)
}
