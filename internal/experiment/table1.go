package experiment

import (
	"fmt"
	"text/tabwriter"

	"cord/internal/baseline"
	"cord/internal/sim"
	"cord/internal/trace"
	"cord/internal/workload"
)

// Table1Row characterizes one application at the campaign's scale — the
// reproduction's analogue of the paper's Table 1 input-set listing. The json
// tags are the stable wire encoding used by exported benchmark artifacts.
type Table1Row struct {
	App           string `json:"app"`
	PaperInput    string `json:"paper_input"`
	Accesses      uint64 `json:"accesses"`
	Instructions  uint64 `json:"instructions"`
	SyncInstances uint64 `json:"sync_instances"`
	Footprint     int    `json:"footprint"` // distinct non-zero words touched
	// FastTrackWords is the FastTrack baseline's live shadow-metadata
	// footprint at the end of the sizing run, in machine words (two epochs
	// per touched data word, a vector clock per sync variable, plus any
	// read vectors still inflated). Shard-count independent.
	FastTrackWords int `json:"fasttrack_words"`
}

// Table1Figure is the numeric view of the catalogue, the representation
// artifact diffing compares cell-by-cell.
func Table1Figure(rows []Table1Row) Figure {
	f := Figure{
		ID:      "table1",
		Title:   "Application catalogue at this scale (Table 1)",
		Columns: []string{"accesses", "instructions", "sync instances", "words touched", "fasttrack words"},
	}
	for _, r := range rows {
		f.Rows = append(f.Rows, Row{Label: r.App, Values: []float64{
			float64(r.Accesses), float64(r.Instructions), float64(r.SyncInstances),
			float64(r.Footprint), float64(r.FastTrackWords),
		}})
	}
	return f
}

// RunTable1 sizes every application with one plain run. The per-app runs
// are independent and fan out across o.Procs workers; rows come back in
// Apps order regardless of worker count. With Options.Checkpoint set,
// journaled rows are loaded instead of re-simulated.
func RunTable1(o Options) ([]Table1Row, error) {
	o = o.withDefaults()
	rows := make([]Table1Row, len(o.Apps))
	if err := o.forEach(len(o.Apps), o.appName, func(i int) error {
		return o.journaledRun("table1", i, 0, &rows[i], func() error {
			app := o.Apps[i]
			ft := baseline.NewFastTrack(baseline.FastTrackConfig{Threads: o.Threads})
			res, err := o.runSim("sizing", app, o.Threads, sim.Config{
				Seed: o.BaseSeed, Observers: []trace.Observer{ft},
			})
			if err != nil {
				return err
			}
			rows[i] = Table1Row{
				App:            app.Name,
				PaperInput:     app.Input,
				Accesses:       res.Accesses,
				Instructions:   res.Ops,
				SyncInstances:  res.SyncInstances,
				Footprint:      res.Mem.Footprint(),
				FastTrackWords: ft.MetadataWords(),
			}
			return nil
		})
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderTable1 writes the catalogue.
func RenderTable1(rows []Table1Row, w *tabwriter.Writer) {
	fmt.Fprintln(w, "app\tpaper input\taccesses\tinstructions\tsync instances\twords touched\tfasttrack words")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%d\t%d\n",
			r.App, r.PaperInput, r.Accesses, r.Instructions, r.SyncInstances, r.Footprint, r.FastTrackWords)
	}
}

// allApps is a compile-time hook keeping the experiment package honest about
// covering every Table 1 application.
var _ = workload.All
