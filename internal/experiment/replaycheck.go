package experiment

import (
	"fmt"
	"text/tabwriter"

	"cord/internal/replay"
)

// ReplayRow is one application's §3.3-style record/replay verification. The
// json tags are the stable wire encoding used by exported benchmark
// artifacts.
type ReplayRow struct {
	App        string `json:"app"`
	Accesses   uint64 `json:"accesses"`
	LogEntries int    `json:"log_entries"`
	LogBytes   int    `json:"log_bytes"`
	Match      bool   `json:"match"`
	Mismatch   string `json:"mismatch,omitempty"`
}

// ReplayFigure is the numeric view of the verification table, the
// representation artifact diffing compares cell-by-cell (match is 1/0).
func ReplayFigure(rows []ReplayRow) Figure {
	f := Figure{
		ID:      "replay",
		Title:   "Record/replay verification (§3.3)",
		Columns: []string{"accesses", "log entries", "log bytes", "exact replay"},
	}
	for _, r := range rows {
		match := 0.0
		if r.Match {
			match = 1
		}
		f.Rows = append(f.Rows, Row{Label: r.App, Values: []float64{
			float64(r.Accesses), float64(r.LogEntries), float64(r.LogBytes), match,
		}})
	}
	return f
}

// RunReplayCheck records and replays every application (one seed), checking
// exact reproduction and the "<1 MB order log" claim. The per-app
// record+replay pairs are independent and fan out across o.Procs workers.
func RunReplayCheck(o Options) ([]ReplayRow, error) {
	o = o.withDefaults()
	rows := make([]ReplayRow, len(o.Apps))
	if err := o.forEach(len(o.Apps), o.appName, func(i int) error {
		return o.journaledRun("replay", i, 0, &rows[i], func() error {
			app := o.Apps[i]
			out, err := replay.RecordAndReplay(app.Build(o.Scale, o.Threads), replay.Options{
				Seed: o.BaseSeed + 1, Jitter: campaignJitter,
			})
			if err != nil {
				return fmt.Errorf("experiment: replaying %s: %w", app.Name, err)
			}
			rows[i] = ReplayRow{
				App:        app.Name,
				Accesses:   out.Recorded.Accesses,
				LogEntries: out.Log.Len(),
				LogBytes:   out.Log.SizeBytes(),
				Match:      out.Match,
				Mismatch:   out.Mismatch,
			}
			return nil
		})
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderReplay writes the verification table.
func RenderReplay(rows []ReplayRow, w *tabwriter.Writer) {
	fmt.Fprintln(w, "app\taccesses\tlog entries\tlog bytes\treplay")
	for _, r := range rows {
		status := "exact"
		if !r.Match {
			status = "MISMATCH: " + r.Mismatch
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%s\n", r.App, r.Accesses, r.LogEntries, r.LogBytes, status)
	}
}
