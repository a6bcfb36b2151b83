package cord_test

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design decisions DESIGN.md calls out. Each bench
// regenerates its artefact and reports domain-specific metrics alongside
// ns/op (races detected, detection ratios, overhead percentages), so
// `go test -bench=. -benchmem` reproduces the whole evaluation.

import (
	"testing"

	"cord"
	"cord/internal/core"
	"cord/internal/experiment"
	"cord/internal/sim"
	"cord/internal/trace"
	"cord/internal/workload"
)

// benchOpts keeps bench campaigns small enough to iterate but large enough
// to be meaningful; cmd/cordbench runs the full-size versions.
func benchOpts() experiment.Options {
	return experiment.Options{Injections: 10, BaseSeed: 0xC0DD}
}

// value extracts the Average row's first value from a figure.
func avgOf(f experiment.Figure, col int) float64 {
	return f.Rows[len(f.Rows)-1].Values[col]
}

// BenchmarkTable1Workloads sizes every application (Table 1).
func BenchmarkTable1Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunTable1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var acc uint64
		for _, r := range rows {
			acc += r.Accesses
		}
		b.ReportMetric(float64(acc)/float64(len(rows)), "accesses/app")
	}
}

// BenchmarkFig10Injections measures the manifestation rate of injected
// synchronization removals.
func BenchmarkFig10Injections(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunDetection(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(avgOf(res.Fig10(), 0)*100, "%manifested")
	}
}

// BenchmarkFig11Overhead measures CORD's execution-time overhead on the
// machine timing model.
func BenchmarkFig11Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOpts()
		o.Scale = 2
		_, fig, err := experiment.RunOverhead(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric((avgOf(fig, 0)-1)*100, "%overhead")
	}
}

// BenchmarkFig12ProblemDetection measures CORD's problem detection rate
// versus the vector-clock scheme and Ideal.
func BenchmarkFig12ProblemDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunDetection(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		f := res.Fig12()
		b.ReportMetric(avgOf(f, 0)*100, "%vsVector")
		b.ReportMetric(avgOf(f, 1)*100, "%vsIdeal")
		if fp := res.FalsePositives(); fp != 0 {
			b.Fatalf("%d false positives", fp)
		}
	}
}

// BenchmarkFig13RawRaces measures CORD's raw race detection rate.
func BenchmarkFig13RawRaces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunDetection(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		f := res.Fig13()
		b.ReportMetric(avgOf(f, 1)*100, "%vsIdeal")
	}
}

// BenchmarkFig14HistoryLimits measures problem detection under the
// InfCache/L2Cache/L1Cache storage bounds.
func BenchmarkFig14HistoryLimits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunDetection(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		f := res.Fig14()
		b.ReportMetric(avgOf(f, 0)*100, "%inf")
		b.ReportMetric(avgOf(f, 1)*100, "%l2")
		b.ReportMetric(avgOf(f, 2)*100, "%l1")
	}
}

// BenchmarkFig15HistoryRawRaces is the raw-race version of Fig 14.
func BenchmarkFig15HistoryRawRaces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunDetection(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		f := res.Fig15()
		b.ReportMetric(avgOf(f, 0)*100, "%inf")
		b.ReportMetric(avgOf(f, 2)*100, "%l1")
	}
}

// BenchmarkFig16DSweep measures the D parameter sweep (problem detection).
func BenchmarkFig16DSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunDetection(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		f := res.Fig16()
		b.ReportMetric(avgOf(f, 0)*100, "%D1")
		b.ReportMetric(avgOf(f, 2)*100, "%D16")
		b.ReportMetric(avgOf(f, 3)*100, "%D256")
	}
}

// BenchmarkFig17DSweepRaw is the raw-race version of the D sweep.
func BenchmarkFig17DSweepRaw(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunDetection(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		f := res.Fig17()
		b.ReportMetric(avgOf(f, 0)*100, "%D1")
		b.ReportMetric(avgOf(f, 2)*100, "%D16")
	}
}

// BenchmarkAreaModel verifies the §2.3-2.4 area arithmetic stays at the
// paper's 19%/38%/200%.
func BenchmarkAreaModel(b *testing.B) {
	m := cord.DefaultAreaModel()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(m.ScalarOverhead()*100, "%scalar")
		b.ReportMetric(m.VectorPerLineOverhead()*100, "%vecLine")
		b.ReportMetric(m.VectorPerWordOverhead()*100, "%vecWord")
	}
}

// BenchmarkReplayVerify measures record-and-replay round trips (§3.3) and
// the order-log density.
func BenchmarkReplayVerify(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunReplayCheck(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var bytes, accesses int
		for _, r := range rows {
			if !r.Match {
				b.Fatalf("%s replay mismatch: %s", r.App, r.Mismatch)
			}
			bytes += r.LogBytes
			accesses += int(r.Accesses)
		}
		b.ReportMetric(float64(bytes)/float64(accesses)*1024, "logB/kacc")
	}
}

// --- Ablation benches (DESIGN.md's design-decision knobs) ---

// ablationRun runs one app+injection under a custom CORD config and returns
// the racy-access count.
func ablationRun(b *testing.B, cfg core.Config, inject uint64) int {
	app, err := workload.ByName("raytrace")
	if err != nil {
		b.Fatal(err)
	}
	det := core.New(cfg)
	_, err = sim.New(sim.Config{
		Seed: 5, Jitter: 7, InjectSkip: inject,
		Observers: []trace.Observer{det},
	}, app.Build(1, 4)).Run()
	if err != nil {
		b.Fatal(err)
	}
	return det.RaceCount()
}

// BenchmarkAblationHistDepth compares two timestamps per line against one
// (the Fig. 2 discussion): one slot erases history on every clock change.
func BenchmarkAblationHistDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var two, one int
		for inj := uint64(3); inj < 40; inj += 6 {
			two += ablationRun(b, core.Config{Threads: 4, D: 16, HistDepth: 2}, inj)
			one += ablationRun(b, core.Config{Threads: 4, D: 16, HistDepth: 1}, inj)
		}
		b.ReportMetric(float64(two), "races2slots")
		b.ReportMetric(float64(one), "races1slot")
	}
}

// BenchmarkAblationUpdateOnDataRaces compares clock updates on all races
// (the paper's §2.4 choice) against updates on sync races only.
func BenchmarkAblationUpdateOnDataRaces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var with, without int
		for inj := uint64(3); inj < 40; inj += 6 {
			with += ablationRun(b, core.Config{Threads: 4, D: 16}, inj)
			without += ablationRun(b, core.Config{Threads: 4, D: 16, NoUpdateOnDataRaces: true}, inj)
		}
		b.ReportMetric(float64(with), "racesUpdateAll")
		b.ReportMetric(float64(without), "racesSyncOnly")
	}
}

// BenchmarkDetectorThroughput measures raw OnAccess cost — the simulator's
// hot loop (not a paper figure; an engineering number).
func BenchmarkDetectorThroughput(b *testing.B) {
	app, err := workload.ByName("cholesky")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		det := core.New(core.Config{Threads: 4, D: 16, Record: true})
		res, err := sim.New(sim.Config{
			Seed: uint64(i + 1), Jitter: 7,
			Observers: []trace.Observer{det},
		}, app.Build(1, 4)).Run()
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(res.Accesses))
	}
}

// BenchmarkDirectoryExtension compares the §2.5 directory extension's
// point-to-point message count against the snooping broadcast equivalent at
// 16 processors.
func BenchmarkDirectoryExtension(b *testing.B) {
	app, err := workload.ByName("raytrace")
	if err != nil {
		b.Fatal(err)
	}
	const procs = 16
	for i := 0; i < b.N; i++ {
		dir := cord.NewDirectory(procs)
		det := core.New(core.Config{Threads: procs, Procs: procs, D: 16, Directory: dir})
		_, err := sim.New(sim.Config{
			Seed: 2, Jitter: 7, Procs: procs,
			Observers: []trace.Observer{det},
		}, app.Build(1, procs)).Run()
		if err != nil {
			b.Fatal(err)
		}
		st := dir.Stats()
		b.ReportMetric(float64(st.Forwards)/float64(st.Requests), "fwd/req")
		b.ReportMetric(float64(procs-1), "snoops/bcast")
	}
}
