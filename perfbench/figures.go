package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"cord/internal/experiment"
)

// The figures workload regenerates the 12 committed goldens: every campaign
// of `cordbench -all -injections 8`, run in-process through the public entry
// points with Procs = the host's CPU count.

const (
	goldenSeed       = 0xC0DD // campaign seed of the committed goldens
	goldenInjections = 8
	overheadScale    = 4  // cordbench -overhead-scale default
	directoryProcs   = 16 // cordbench -directory-procs default
	overheadSeeds    = 5  // seeds per app in experiment.RunOverhead
	passSeconds      = 10 // nominal length of one campaign pass
)

// goldenIDs lists the artifacts in the order cordbench -all writes them.
var goldenIDs = []string{"table1", "area", "fig10", "fig12", "fig13", "fig14",
	"fig15", "fig16", "fig17", "fig11", "replay", "directory"}

// entryPoints names the timed experiment entry points of one pass.
var entryPoints = []string{"table1", "detection", "overhead", "replay", "directory"}

// campaignOptions is the golden campaign configuration at seed. Seed 0
// selects the golden seed, as in experiment.Options.
func campaignOptions(seed uint64) experiment.Options {
	return experiment.Options{Scale: 1, Injections: goldenInjections, BaseSeed: seed, Procs: runtime.NumCPU()}
}

// campaignRuns is the number of independent simulations one pass performs.
func campaignRuns(o experiment.Options) int {
	apps := len(o.Meta().Apps)
	perApp := 1 + // table1 sizing
		1 + o.Injections + // detection: count run plus injections
		2*overheadSeeds + // overhead: baseline and CORD run per seed
		2 + // replay: record and replay
		1 // directory
	return apps * perApp
}

// pass is one run of the whole campaign set.
type pass struct {
	artifacts      []experiment.Artifact
	falsePositives int
	replayBad      int // apps whose replay did not reproduce the recording
	directoryBad   int // apps whose directory detection differed from snooping
	entry          map[string]time.Duration
	wall           time.Duration
}

// runCampaign runs every golden campaign once, timing each entry point.
func runCampaign(o experiment.Options) (*pass, error) {
	p := &pass{entry: map[string]time.Duration{}}
	meta := o.Meta()
	start := time.Now()
	timed := func(name string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		p.entry[name] = time.Since(t0)
		if err != nil {
			return fmt.Errorf("%s campaign: %w", name, err)
		}
		return nil
	}

	var t1 []experiment.Table1Row
	if err := timed("table1", func() (err error) { t1, err = experiment.RunTable1(o); return }); err != nil {
		return nil, err
	}
	p.artifacts = append(p.artifacts, experiment.Table1Artifact(t1, meta),
		experiment.FigureArtifact(experiment.AreaFigure(), meta))

	var det *experiment.DetectionResults
	if err := timed("detection", func() (err error) { det, err = experiment.RunDetection(o); return }); err != nil {
		return nil, err
	}
	for _, f := range []experiment.Figure{det.Fig10(), det.Fig12(), det.Fig13(), det.Fig14(),
		det.Fig15(), det.Fig16(), det.Fig17()} {
		p.artifacts = append(p.artifacts, experiment.FigureArtifact(f, meta))
	}
	p.falsePositives = det.FalsePositives()

	ov := o
	ov.Scale = overheadScale
	var ovRows []experiment.OverheadRow
	var ovFig experiment.Figure
	if err := timed("overhead", func() (err error) { ovRows, ovFig, err = experiment.RunOverhead(ov); return }); err != nil {
		return nil, err
	}
	p.artifacts = append(p.artifacts, experiment.OverheadArtifact(ovRows, ovFig, ov.Meta()))

	var rep []experiment.ReplayRow
	if err := timed("replay", func() (err error) { rep, err = experiment.RunReplayCheck(o); return }); err != nil {
		return nil, err
	}
	for _, r := range rep {
		if !r.Match {
			p.replayBad++
		}
	}
	p.artifacts = append(p.artifacts, experiment.ReplayArtifact(rep, meta))

	var dir []experiment.DirectoryRow
	if err := timed("directory", func() (err error) { dir, err = experiment.RunDirectory(o, directoryProcs); return }); err != nil {
		return nil, err
	}
	for _, r := range dir {
		if !r.RacesMatch {
			p.directoryBad++
		}
	}
	p.artifacts = append(p.artifacts, experiment.DirectoryArtifact(dir, directoryProcs, meta))
	p.wall = time.Since(start)
	return p, nil
}

// loadGoldens reads the committed BENCH_<id>.json artifacts from dir.
func loadGoldens(dir string) (map[string]experiment.Artifact, error) {
	g := map[string]experiment.Artifact{}
	for _, id := range goldenIDs {
		a, err := experiment.ReadArtifact(filepath.Join(dir, experiment.ArtifactFileName(id)))
		if err != nil {
			return nil, err
		}
		g[id] = a
	}
	return g, nil
}

// runFigures runs the campaign set max(2, seconds/passSeconds) times. Every
// artifact of every pass is an operation; it fails when it differs from the
// committed golden (at the golden seed), when its encoding differs from the
// first pass's, or when its campaign broke one of the paper's claims: zero
// false positives, exact replay, directory detection equal to snooping.
func runFigures(e *env) (*outcome, error) {
	o := campaignOptions(e.seed)
	golden := o.Meta().BaseSeed == goldenSeed
	passes := max(2, int(e.seconds/time.Second)/passSeconds)
	out := newOutcome()
	var first [][]byte
	var walls []float64
	entry := map[string][]float64{}
	for i := 0; i < passes; i++ {
		p, err := runCampaign(o)
		if err != nil {
			return nil, err
		}
		walls = append(walls, p.wall.Seconds())
		for name, d := range p.entry {
			entry[name] = append(entry[name], d.Seconds())
		}
		if len(p.artifacts) != len(goldenIDs) {
			return nil, fmt.Errorf("campaign produced %d artifacts, want %d", len(p.artifacts), len(goldenIDs))
		}
		for j, a := range p.artifacts {
			enc, err := a.Encode()
			if err != nil {
				return nil, err
			}
			var why []string
			if golden {
				if diffs := experiment.DiffArtifacts(a, e.goldens[a.ID], experiment.DiffOptions{}); len(diffs) > 0 {
					why = append(why, fmt.Sprintf("differs from the golden (%d cells, first: %s)", len(diffs), diffs[0]))
				}
			}
			if i == 0 {
				first = append(first, enc)
			} else if !bytes.Equal(enc, first[j]) {
				why = append(why, "encoding differs from the first pass")
			}
			switch {
			case a.ID == "fig12" && p.falsePositives != 0:
				why = append(why, fmt.Sprintf("%d false positives", p.falsePositives))
			case a.ID == "replay" && p.replayBad != 0:
				why = append(why, fmt.Sprintf("%d apps did not replay exactly", p.replayBad))
			case a.ID == "directory" && p.directoryBad != 0:
				why = append(why, fmt.Sprintf("%d apps detect differently under the directory", p.directoryBad))
			}
			out.check(len(why) == 0, "pass %d artifact %s: %v", i+1, a.ID, why)
		}
	}

	wallMS := make([]float64, len(walls))
	for i, w := range walls {
		wallMS[i] = w * 1000
	}
	total := 0.0
	for _, w := range walls {
		total += w
	}
	out.metric("p50_ms", percentile(wallMS, 0.5), "ms")
	out.metric("tail_ms", percentile(wallMS, 1), "ms")
	out.metric("ops_per_s", float64(campaignRuns(o)*passes)/total, "1/s")

	out.note("figures_s", percentile(walls, 0.5), "s")
	for _, name := range entryPoints {
		out.note(name+"_s", percentile(entry[name], 0.5), "s")
	}
	out.note("figures_passes", float64(passes), "count")
	if golden {
		out.note("golden_artifacts_checked", float64(len(goldenIDs)*passes), "count")
	}
	return out, nil
}
