package experiment

import (
	"fmt"

	"cord/internal/core"
	"cord/internal/machine"
	"cord/internal/sim"
	"cord/internal/trace"
)

// OverheadRow is one application's Figure 11 measurement. The json tags are
// the stable wire encoding used by exported benchmark artifacts.
type OverheadRow struct {
	App            string `json:"app"`
	BaselineCycles uint64 `json:"baseline_cycles"`
	CordCycles     uint64 `json:"cord_cycles"`
	// Relative is CordCycles / BaselineCycles (1.004 = 0.4% overhead).
	Relative float64 `json:"relative"`
	// CheckRequests and MemTsUpdates are CORD's address/timestamp-bus
	// transactions during the run.
	CheckRequests   uint64 `json:"check_requests"`
	MemTsBroadcasts uint64 `json:"mem_ts_broadcasts"`
	LogBytes        int    `json:"log_bytes"`
}

// RunOverhead reproduces Figure 11: each application runs twice on the
// detailed machine timing model — once without any CORD support and once
// with the CORD detector's race-check and memory-timestamp traffic coupled
// into the address/timestamp bus — and reports the execution-time ratio,
// averaged over several seeds (the workloads' interleavings, and for
// task-queue applications even the per-thread work split, vary with the
// schedule, so single-seed ratios are noisy).
func RunOverhead(o Options) ([]OverheadRow, Figure, error) {
	o = o.withDefaults()
	const seeds = 5
	fig := Figure{
		ID:      "fig11",
		Title:   "Execution time with CORD relative to baseline (no recording, no DRD)",
		Columns: []string{"relative time"},
		Notes: []string{
			"paper: 0.4% average overhead, 3% worst case (cholesky)",
			fmt.Sprintf("each cell is the cycle ratio summed over %d seeds", seeds),
		},
	}

	// Each (app, seed) pair is one independent baseline+CORD measurement;
	// the flat pair list fans out across o.Procs workers and aggregates in
	// index order, keeping per-row sums identical at any worker count. The
	// json tags make each measurement journal-able under checkpointing.
	type measurement struct {
		BaseCycles uint64 `json:"base_cycles"`
		CordCycles uint64 `json:"cord_cycles"`
		Checks     uint64 `json:"checks"`
		MemTs      uint64 `json:"mem_ts"`
		LogBytes   int    `json:"log_bytes"`
	}
	ms := make([]measurement, len(o.Apps)*seeds)
	if err := o.forEach(len(ms), func(k int) string { return o.Apps[k/seeds].Name }, func(k int) error {
		return o.journaledRun("overhead", k/seeds, k%seeds, &ms[k], func() error {
			app, sd := o.Apps[k/seeds], uint64(k%seeds)
			seed := o.BaseSeed + 31*sd
			base, err := o.runSim("baseline for", app, o.Threads, sim.Config{
				Seed: seed, Jitter: 2,
				Cost: machine.New(machine.DefaultConfig()),
			})
			if err != nil {
				return err
			}
			det := core.New(core.Config{Threads: o.Threads, Procs: o.Threads, D: 16, Record: true})
			cordRun, err := o.runSim("CORD run for", app, o.Threads, sim.Config{
				Seed: seed, Jitter: 2,
				Cost:      machine.New(machine.DefaultConfig()),
				Observers: []trace.Observer{det},
				Primary:   det,
			})
			if err != nil {
				return err
			}
			st := det.Stats()
			ms[k] = measurement{
				BaseCycles: base.Cycles,
				CordCycles: cordRun.Cycles,
				Checks:     st.CheckRequests,
				MemTs:      st.MemTsBroadcasts,
				LogBytes:   det.Log().SizeBytes(),
			}
			return nil
		})
	}); err != nil {
		return nil, Figure{}, err
	}

	var rows []OverheadRow
	var sumBase, sumCord uint64
	for appIdx, app := range o.Apps {
		row := OverheadRow{App: app.Name}
		for sd := 0; sd < seeds; sd++ {
			m := ms[appIdx*seeds+sd]
			row.BaselineCycles += m.BaseCycles
			row.CordCycles += m.CordCycles
			row.CheckRequests += m.Checks
			row.MemTsBroadcasts += m.MemTs
			row.LogBytes += m.LogBytes
		}
		row.Relative = float64(row.CordCycles) / float64(row.BaselineCycles)
		rows = append(rows, row)
		fig.Rows = append(fig.Rows, Row{Label: app.Name, Values: []float64{row.Relative}})
		sumBase += row.BaselineCycles
		sumCord += row.CordCycles
		if o.Progress != nil {
			fmt.Fprintf(o.Progress, "%-10s baseline=%d cord=%d (%.2f%%) checks=%d\n",
				app.Name, row.BaselineCycles, row.CordCycles, (row.Relative-1)*100, row.CheckRequests)
		}
	}
	fig.Rows = append(fig.Rows, Row{Label: "Average", Values: []float64{float64(sumCord) / float64(sumBase)}})
	return rows, fig, nil
}
