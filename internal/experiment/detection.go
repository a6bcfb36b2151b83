package experiment

import (
	"fmt"
	"io"
	"math/rand/v2"

	"cord/internal/baseline"
	"cord/internal/chaos"
	"cord/internal/checkpoint"
	"cord/internal/core"
	"cord/internal/sim"
	"cord/internal/trace"
	"cord/internal/workload"
)

// Options configures an experiment campaign.
type Options struct {
	// Scale grows the workloads (1 = test scale, the default).
	Scale int
	// Threads is the processor/thread count (default 4, as in §3.1).
	Threads int
	// Injections is the number of fault-injection runs per application
	// (default 40; the paper uses 20–100).
	Injections int
	// BaseSeed varies the whole campaign.
	BaseSeed uint64
	// Apps selects the applications (default: all of Table 1).
	Apps []workload.App
	// Progress, when non-nil, receives one line per completed app. The
	// writer is wrapped so concurrent workers never interleave mid-line.
	Progress io.Writer
	// Procs is the number of host worker goroutines the campaign fans its
	// independent simulation runs across (default runtime.NumCPU()). It has
	// no effect on results: seeds, not execution order, define every run,
	// and aggregation happens in deterministic index order. Not to be
	// confused with Threads, the count of simulated processors.
	Procs int
	// Checkpoint, when non-nil, makes the campaign crash-safe: every
	// completed run's outcome is journaled under its deterministic identity,
	// and runs already journaled (by this process or a crashed predecessor
	// with the same campaign configuration) are skipped, their outcomes
	// loaded instead of re-simulated. Resumed campaigns produce artifacts
	// byte-identical to uninterrupted ones. It has no effect on results.
	Checkpoint *checkpoint.Journal
	// Interrupt, when non-nil and closed, drains the campaign gracefully:
	// no new runs dispatch, in-flight runs finish (and journal), and the
	// entry point returns ErrInterrupted. cordbench wires SIGINT/SIGTERM
	// here.
	Interrupt <-chan struct{}
	// Cancel, when non-nil and closed, aborts in-flight simulations too:
	// every run's engine unwinds (sim.ErrCanceled) instead of finishing.
	// Use Interrupt for graceful drains that must journal their in-flight
	// work; use Cancel when the caller is gone — the cordd campaign
	// endpoint wires the request context's Done channel here.
	Cancel <-chan struct{}
	// Chaos, when non-nil, crashes the process after a set number of
	// completed runs, for crash-resume testing (see internal/chaos and the
	// CORD_CHAOS variable). A crash never changes outcomes: the runs it
	// interrupts re-execute on resume, and runs are pure functions of their
	// seeds.
	Chaos *chaos.Chaos
}

func (o Options) withDefaults() Options {
	if o.Scale < 1 {
		o.Scale = 1
	}
	if o.Threads <= 0 {
		o.Threads = 4
	}
	if o.Injections <= 0 {
		o.Injections = 40
	}
	if o.BaseSeed == 0 {
		o.BaseSeed = 0xC0DD
	}
	if o.Apps == nil {
		o.Apps = workload.All()
	}
	if o.Procs <= 0 {
		o.Procs = defaultProcs()
	}
	o.Progress = newSyncWriter(o.Progress)
	return o
}

// Detector configuration labels, in campaign column order.
const (
	cfgIdeal  = "Ideal"
	cfgVecInf = "Vector/InfCache"
	cfgVecL2  = "Vector/L2Cache"
	cfgVecL1  = "Vector/L1Cache"
	cfgFT     = "FastTrack"
	cfgD1     = "CORD(D=1)"
	cfgD4     = "CORD(D=4)"
	cfgD16    = "CORD(D=16)"
	cfgD256   = "CORD(D=256)"
)

// Configs lists the detector configurations of the detection campaign.
func Configs() []string {
	return []string{cfgIdeal, cfgVecInf, cfgVecL2, cfgVecL1, cfgFT, cfgD1, cfgD4, cfgD16, cfgD256}
}

// AppDetection aggregates one application's injection campaign.
type AppDetection struct {
	App        string
	Injected   int // runs in which an instance was actually removed
	Hung       int // deadlocked runs (excluded from rates)
	Manifested int // runs where the Ideal oracle found >= 1 data race

	Problems map[string]int // config -> runs with >= 1 reported race
	Races    map[string]int // config -> total reported races

	FalsePositives int // CORD reports unconfirmed by the oracle (must be 0)
}

// DetectionResults is the full campaign outcome; the Fig* methods derive the
// paper's figures from it.
type DetectionResults struct {
	Apps    []AppDetection
	Configs []string
}

// injectionOutcome is one fault-injection run's contribution to its
// application's aggregate. Runs record into their own outcome value (keyed
// by run index) so the campaign can execute them in any order and on any
// number of workers without changing the aggregate. The json tags are the
// checkpoint-journal wire encoding: a resumed campaign decodes these exact
// fields back, so the aggregation cannot tell a journaled outcome from a
// fresh one.
type injectionOutcome struct {
	Landed     bool            `json:"landed"` // the injection target existed in this run
	Hung       bool            `json:"hung,omitempty"`
	Manifested bool            `json:"manifested,omitempty"`
	Problems   map[string]bool `json:"problems,omitempty"`
	Races      map[string]int  `json:"races,omitempty"`
	FalsePos   int             `json:"false_pos,omitempty"`
}

// countOutcome is the journaled outcome of one phase-1 sizing run: the
// injection targets drawn for the app.
type countOutcome struct {
	Targets []uint64 `json:"targets"`
}

// RunDetection executes the §3.4 methodology: for each application, inject
// one randomly chosen dynamic synchronization removal per run, observe the
// same execution with every detector configuration, and aggregate detection
// outcomes. The campaign's (apps × injections) runs are independent and fan
// out across o.Procs workers; results are identical at any worker count
// because every run's seed and target derive only from (BaseSeed, app
// index, injection index) and aggregation walks runs in index order.
func RunDetection(o Options) (*DetectionResults, error) {
	o = o.withDefaults()
	res := &DetectionResults{Configs: Configs()}

	ids := make([]runID, 0, len(o.Apps)*o.Injections)
	for appIdx := range o.Apps {
		for i := 0; i < o.Injections; i++ {
			ids = append(ids, runID{appIdx, i})
		}
	}
	_, outcomes, err := o.detectRuns(ids)
	if err != nil {
		return nil, err
	}

	// Aggregate in (app, injection) index order.
	for appIdx, app := range o.Apps {
		agg := AppDetection{
			App:      app.Name,
			Problems: map[string]int{},
			Races:    map[string]int{},
		}
		for _, out := range outcomes[appIdx*o.Injections : (appIdx+1)*o.Injections] {
			if !out.Landed {
				continue // target beyond this run's instance count
			}
			if out.Hung {
				agg.Hung++
				continue
			}
			agg.Injected++
			if out.Manifested {
				agg.Manifested++
			}
			for _, cfg := range res.Configs {
				if out.Problems[cfg] {
					agg.Problems[cfg]++
				}
				agg.Races[cfg] += out.Races[cfg]
			}
			agg.FalsePositives += out.FalsePos
		}
		res.Apps = append(res.Apps, agg)
		if o.Progress != nil {
			fmt.Fprintf(o.Progress, "%-10s injected=%d hung=%d manifested=%d ideal=%d cordD16=%d vecL2=%d fp=%d\n",
				app.Name, agg.Injected, agg.Hung, agg.Manifested,
				agg.Problems[cfgIdeal], agg.Problems[cfgD16], agg.Problems[cfgVecL2], agg.FalsePositives)
		}
	}
	return res, nil
}

// runID names one fault-injection run: application index and run index.
type runID struct{ app, run int }

// detectRuns executes the injection runs ids, sorted by application then
// run, for RunDetection and ExecuteDetectShard alike. Phase 1 sizes each
// application ids touch and draws its targets (countRun); phase 2 runs the
// injections, each writing its own index-keyed cell. counts is indexed by
// application, outcomes like ids.
func (o Options) detectRuns(ids []runID) (counts []countOutcome, outcomes []injectionOutcome, err error) {
	apps := appsOf(ids)
	counts = make([]countOutcome, len(o.Apps))
	if err := o.forEach(len(apps), func(k int) string { return o.Apps[apps[k]].Name }, func(k int) error {
		appIdx := apps[k]
		return o.journaledRun("detect-count", appIdx, 0, &counts[appIdx], func() (err error) {
			counts[appIdx], err = o.countRun(appIdx)
			return err
		})
	}); err != nil {
		return nil, nil, err
	}

	outcomes = make([]injectionOutcome, len(ids))
	if err := o.forEach(len(ids), func(k int) string { return o.Apps[ids[k].app].Name }, func(k int) error {
		id := ids[k]
		return o.journaledRun("detect-inject", id.app, id.run, &outcomes[k], func() (err error) {
			outcomes[k], err = o.runInjection(id.app, id.run, counts[id.app].Targets[id.run])
			return err
		})
	}); err != nil {
		return nil, nil, err
	}
	return counts, outcomes, nil
}

// appsOf lists the distinct applications of ids, which are sorted by
// application, in order.
func appsOf(ids []runID) []int {
	var apps []int
	for _, id := range ids {
		if len(apps) == 0 || apps[len(apps)-1] != id.app {
			apps = append(apps, id.app)
		}
	}
	return apps
}

// countRun is the detection campaign's phase-1 sizing run for one
// application: simulate it un-injected to count dynamic sync instances, then
// draw the campaign's injection targets from a per-app PCG stream consumed
// in injection order. The draw depends only on (BaseSeed, appIdx,
// Injections), which is what lets a shard worker recompute an app's targets
// independently and land on exactly the bytes the coordinator expects.
func (o Options) countRun(appIdx int) (countOutcome, error) {
	app := o.Apps[appIdx]
	count, err := o.runSim("counting", app, o.Threads, sim.Config{Seed: o.BaseSeed})
	if err != nil {
		return countOutcome{}, err
	}
	if count.SyncInstances == 0 {
		return countOutcome{}, fmt.Errorf("experiment: %s has no injectable synchronization", app.Name)
	}
	rng := rand.New(rand.NewPCG(o.BaseSeed^uint64(appIdx*7919+1), 0xD1CE))
	// Stay below the observed count so the target exists in runs whose
	// instance count varies slightly with the seed.
	maxTarget := count.SyncInstances * 9 / 10
	if maxTarget == 0 {
		maxTarget = 1
	}
	ts := make([]uint64, o.Injections)
	for i := range ts {
		ts[i] = 1 + rng.Uint64N(maxTarget)
	}
	return countOutcome{Targets: ts}, nil
}

// runInjection performs one fault-injection simulation: remove the target-th
// dynamic sync instance and observe the execution with every detector
// configuration at once.
func (o Options) runInjection(appIdx, i int, target uint64) (injectionOutcome, error) {
	app := o.Apps[appIdx]
	seed := o.BaseSeed + uint64(appIdx)*1_000_003 + uint64(i)*97

	ideal := baseline.NewIdeal(o.Threads)
	vecInf := baseline.NewVecCache(baseline.VecConfig{Threads: o.Threads, Procs: o.Threads, Bound: baseline.BoundInf})
	vecL2 := baseline.NewVecCache(baseline.VecConfig{Threads: o.Threads, Procs: o.Threads, Bound: baseline.BoundL2})
	vecL1 := baseline.NewVecCache(baseline.VecConfig{Threads: o.Threads, Procs: o.Threads, Bound: baseline.BoundL1})
	ft := baseline.NewFastTrack(baseline.FastTrackConfig{Threads: o.Threads})
	cords := map[string]*core.Detector{
		cfgD1:   core.New(core.Config{Threads: o.Threads, Procs: o.Threads, D: 1}),
		cfgD4:   core.New(core.Config{Threads: o.Threads, Procs: o.Threads, D: 4}),
		cfgD16:  core.New(core.Config{Threads: o.Threads, Procs: o.Threads, D: 16}),
		cfgD256: core.New(core.Config{Threads: o.Threads, Procs: o.Threads, D: 256}),
	}
	obs := []trace.Observer{ideal, vecInf, vecL2, vecL1, ft,
		cords[cfgD1], cords[cfgD4], cords[cfgD16], cords[cfgD256]}

	run, err := o.runSim(fmt.Sprintf("injecting %d into", i), app, o.Threads, sim.Config{
		Seed: seed, InjectSkip: target, Observers: obs,
	})
	if err != nil {
		return injectionOutcome{}, err
	}
	if run.InjectedThread < 0 {
		return injectionOutcome{}, nil
	}
	if run.Hung {
		return injectionOutcome{Landed: true, Hung: true}, nil
	}
	out := injectionOutcome{
		Landed:     true,
		Manifested: ideal.ProblemDetected(),
		Problems:   map[string]bool{},
		Races:      map[string]int{},
	}
	record := func(name string, problem bool, races int) {
		out.Problems[name] = problem
		out.Races[name] = races
	}
	record(cfgIdeal, ideal.ProblemDetected(), ideal.RaceCount())
	record(cfgVecInf, vecInf.ProblemDetected(), vecInf.RaceCount())
	record(cfgVecL2, vecL2.ProblemDetected(), vecL2.RaceCount())
	record(cfgVecL1, vecL1.ProblemDetected(), vecL1.RaceCount())
	record(cfgFT, ft.ProblemDetected(), ft.RaceCount())
	// FastTrack's happens-before model must agree with the Ideal oracle:
	// every report it makes has to be confirmable, exactly like CORD's.
	for _, r := range ft.Races() {
		if !ideal.Confirms(r) {
			out.FalsePos++
		}
	}
	for name, d := range cords {
		record(name, d.ProblemDetected(), d.RaceCount())
		for _, r := range d.Races() {
			if !ideal.Confirms(r) {
				out.FalsePos++
			}
		}
	}
	return out, nil
}

// figure builds a per-app figure where each column is numerator[config] /
// denominator, plus an aggregate Average row computed from summed counts.
func (r *DetectionResults) figure(id, title string, cols []string,
	num func(a AppDetection, cfg string) int, den func(a AppDetection, cfg string) int, notes ...string) Figure {

	f := Figure{ID: id, Title: title, Columns: cols, Notes: notes}
	sumNum := make([]int, len(cols))
	sumDen := make([]int, len(cols))
	for _, a := range r.Apps {
		row := Row{Label: a.App}
		for i, c := range cols {
			n, d := num(a, c), den(a, c)
			row.Values = append(row.Values, ratio(n, d))
			sumNum[i] += n
			sumDen[i] += d
		}
		f.Rows = append(f.Rows, row)
	}
	avg := Row{Label: "Average"}
	for i := range cols {
		avg.Values = append(avg.Values, ratio(sumNum[i], sumDen[i]))
	}
	f.Rows = append(f.Rows, avg)
	return f
}

// Fig10 is the percentage of injected removals that produced at least one
// data race, as judged by the Ideal oracle.
func (r *DetectionResults) Fig10() Figure {
	return r.figure("fig10",
		"Injected dynamic instances of missing synchronization that caused >=1 data race",
		[]string{"manifested"},
		func(a AppDetection, _ string) int { return a.Manifested },
		func(a AppDetection, _ string) int { return a.Injected },
		"denominator: injection runs that completed (hung runs excluded)")
}

// Fig12 is CORD's problem detection rate relative to the vector-clock scheme
// and to Ideal (paper: 83% and 77% on average), with the FastTrack epoch
// baseline's rate vs Ideal alongside for calibration.
func (r *DetectionResults) Fig12() Figure {
	f := Figure{ID: "fig12", Title: "CORD problem detection rate",
		Columns: []string{"vs Vector Clock", "vs Ideal", "FastTrack vs Ideal"}}
	var sn, sv, si, sf int
	for _, a := range r.Apps {
		f.Rows = append(f.Rows, Row{Label: a.App, Values: []float64{
			ratio(a.Problems[cfgD16], a.Problems[cfgVecL2]),
			ratio(a.Problems[cfgD16], a.Problems[cfgIdeal]),
			ratio(a.Problems[cfgFT], a.Problems[cfgIdeal]),
		}})
		sn += a.Problems[cfgD16]
		sv += a.Problems[cfgVecL2]
		si += a.Problems[cfgIdeal]
		sf += a.Problems[cfgFT]
	}
	f.Rows = append(f.Rows, Row{Label: "Average",
		Values: []float64{ratio(sn, sv), ratio(sn, si), ratio(sf, si)}})
	f.Notes = append(f.Notes, "CORD column is the default D=16 configuration",
		"paper reports 83% vs vector clocks and 77% vs Ideal on average",
		"FastTrack keeps full per-word epochs, so its rate vs Ideal bounds what any first-race-per-variable scheme can reach")
	return f
}

// Fig13 is CORD's raw data-race detection rate relative to the vector-clock
// scheme and to Ideal (paper: ~20% of Ideal).
func (r *DetectionResults) Fig13() Figure {
	f := Figure{ID: "fig13", Title: "CORD raw data race detection rate", Columns: []string{"vs Vector Clock", "vs Ideal"}}
	var sn, sv, si int
	for _, a := range r.Apps {
		f.Rows = append(f.Rows, Row{Label: a.App, Values: []float64{
			ratio(a.Races[cfgD16], a.Races[cfgVecL2]),
			ratio(a.Races[cfgD16], a.Races[cfgIdeal]),
		}})
		sn += a.Races[cfgD16]
		sv += a.Races[cfgVecL2]
		si += a.Races[cfgIdeal]
	}
	f.Rows = append(f.Rows, Row{Label: "Average", Values: []float64{ratio(sn, sv), ratio(sn, si)}})
	f.Notes = append(f.Notes, "paper reports CORD detecting ~20% of Ideal's dynamic races")
	return f
}

// Fig14 is the problem detection rate of the vector-clock configurations
// under increasingly severe buffering limits, relative to Ideal.
func (r *DetectionResults) Fig14() Figure {
	cols := []string{cfgVecInf, cfgVecL2, cfgVecL1}
	return r.figure("fig14",
		"Problem detection with limited access histories (vector clocks, vs Ideal)",
		cols,
		func(a AppDetection, cfg string) int { return a.Problems[cfg] },
		func(a AppDetection, _ string) int { return a.Problems[cfgIdeal] },
		"paper: ~9% of problems lost by L2Cache buffering limits; L1Cache notably worse")
}

// Fig15 is the raw race detection rate for the same storage sweep.
func (r *DetectionResults) Fig15() Figure {
	cols := []string{cfgVecInf, cfgVecL2, cfgVecL1}
	return r.figure("fig15",
		"Raw data race detection with limited access histories (vector clocks, vs Ideal)",
		cols,
		func(a AppDetection, cfg string) int { return a.Races[cfg] },
		func(a AppDetection, _ string) int { return a.Races[cfgIdeal] },
		"paper: even InfCache (2 timestamps/line) misses ~18% of raw races")
}

// Fig16 is the scalar D sweep's problem detection rate relative to the
// vector-clock L2Cache configuration.
func (r *DetectionResults) Fig16() Figure {
	cols := []string{cfgD1, cfgD4, cfgD16, cfgD256}
	return r.figure("fig16",
		"Problem detection with scalar clocks, sync-read window sweep (vs Vector/L2Cache)",
		cols,
		func(a AppDetection, cfg string) int { return a.Problems[cfg] },
		func(a AppDetection, _ string) int { return a.Problems[cfgVecL2] },
		"paper: D=16 detects ~62% more problems than D=1; only barnes improves past D=16")
}

// Fig17 is the raw-race version of the D sweep.
func (r *DetectionResults) Fig17() Figure {
	cols := []string{cfgD1, cfgD4, cfgD16, cfgD256}
	return r.figure("fig17",
		"Raw data race detection with scalar clocks, sync-read window sweep (vs Vector/L2Cache)",
		cols,
		func(a AppDetection, cfg string) int { return a.Races[cfg] },
		func(a AppDetection, _ string) int { return a.Races[cfgVecL2] })
}

// FalsePositives sums oracle-unconfirmed CORD reports across the campaign
// (the paper's no-false-positives claim demands zero).
func (r *DetectionResults) FalsePositives() int {
	n := 0
	for _, a := range r.Apps {
		n += a.FalsePositives
	}
	return n
}
