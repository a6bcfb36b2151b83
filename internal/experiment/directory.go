package experiment

import (
	"fmt"
	"text/tabwriter"

	"cord/internal/core"
	"cord/internal/directory"
	"cord/internal/sim"
	"cord/internal/trace"
)

// DirectoryRow compares, for one application, the snooping broadcast traffic
// with the directory extension's point-to-point messages for the same CORD
// transactions (§2.5's proposed extension).
// The json tags are the stable wire encoding used by exported benchmark
// artifacts.
type DirectoryRow struct {
	App string `json:"app"`
	// Requests is the number of bus-visible CORD transactions.
	Requests uint64 `json:"requests"`
	// Forwards is the directory's count of forwards to remote holders for
	// them.
	Forwards uint64 `json:"forwards"`
	// SnoopMessages is what a broadcast protocol costs: every transaction
	// observed by every other processor.
	SnoopMessages uint64 `json:"snoop_messages"`
	// MemTsMessages is the directory-homed memory-timestamp update count.
	MemTsMessages uint64 `json:"mem_ts_messages"`
	// RacesMatch reports that detection under the directory equals
	// detection under snooping. It is true by construction: the directory
	// counts the messages of the snooping probe, which runs unchanged, so
	// one detector serves both protocols (core's TestDirectoryEquivalence
	// checks that attaching the counter changes neither races nor log). The
	// field stays because BENCH_directory.json carries it.
	RacesMatch bool `json:"races_match"`
}

// DirectoryFigure is the numeric view of the traffic comparison, the
// representation artifact diffing compares cell-by-cell (match is 1/0).
func DirectoryFigure(rows []DirectoryRow) Figure {
	f := Figure{
		ID:      "directory",
		Title:   "Directory-extension traffic vs broadcast snooping (§2.5)",
		Columns: []string{"requests", "dir forwards", "snoop msgs", "mem-ts msgs", "detection match"},
	}
	for _, r := range rows {
		match := 0.0
		if r.RacesMatch {
			match = 1
		}
		f.Rows = append(f.Rows, Row{Label: r.App, Values: []float64{
			float64(r.Requests), float64(r.Forwards), float64(r.SnoopMessages), float64(r.MemTsMessages), match,
		}})
	}
	return f
}

// RunDirectory measures the extension at the given processor count (procs
// here is the count of simulated processors, unlike Options.Procs, the host
// worker count the per-app runs fan out across).
func RunDirectory(o Options, procs int) ([]DirectoryRow, error) {
	o = o.withDefaults()
	if procs <= 0 {
		procs = 16
	}
	rows := make([]DirectoryRow, len(o.Apps))
	// The simulated processor count is part of the run identity (it is not in
	// CampaignMeta), so journals from different -dirprocs values never alias.
	campaign := fmt.Sprintf("directory@%d", procs)
	if err := o.forEach(len(o.Apps), func(i int) error {
		return o.journaledRun(campaign, i, 0, &rows[i], func() error {
			app := o.Apps[i]
			dir := directory.New(procs)
			det := core.New(core.Config{Threads: procs, Procs: procs, D: 16, Directory: dir})
			if _, err := o.runSim("directory run", app, procs, sim.Config{
				Seed: o.BaseSeed, Procs: procs,
				Observers: []trace.Observer{det},
			}); err != nil {
				return err
			}
			st := dir.Stats()
			rows[i] = DirectoryRow{
				App:           app.Name,
				Requests:      st.Requests,
				Forwards:      st.Forwards,
				SnoopMessages: st.Requests * uint64(procs-1),
				MemTsMessages: st.MemTsMessages,
				RacesMatch:    true,
			}
			return nil
		})
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderDirectory writes the comparison table.
func RenderDirectory(rows []DirectoryRow, procs int, w *tabwriter.Writer) {
	fmt.Fprintf(w, "app\trequests\tdir forwards\tsnoop msgs (x%d)\tsavings\tmem-ts msgs\tdetection\n", procs-1)
	for _, r := range rows {
		status := "identical"
		if !r.RacesMatch {
			status = "MISMATCH"
		}
		savings := 1 - float64(r.Forwards)/float64(r.SnoopMessages)
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%s\t%d\t%s\n",
			r.App, r.Requests, r.Forwards, r.SnoopMessages, Percent(savings), r.MemTsMessages, status)
	}
}
