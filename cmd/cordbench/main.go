// Command cordbench regenerates the paper's evaluation: Table 1, Figures
// 10–17, the §2.3–2.4 area arithmetic, and the §3.3 record/replay
// verification. Select individual artefacts with flags, or run everything
// with -all. The detection figures (10, 12–17) share one injection campaign,
// so requesting any of them runs it once.
//
// Campaigns are lists of independent seed-deterministic simulations, so
// they fan out across -procs host workers (default: all CPUs). Output is
// byte-identical at any -procs value for the same -seed; only wall-clock
// time changes.
//
// Besides the human-oriented text tables, -json <dir> exports every selected
// figure/table as a schema-versioned BENCH_<id>.json artifact, and
// -diff <dir> compares the fresh run against such artifacts (the golden
// baselines CI gates on). See EXPERIMENTS.md.
//
// Campaigns are crash-safe when -checkpoint <dir> is given: every completed
// run's outcome is journaled, SIGINT/SIGTERM drain in-flight runs before
// exiting (status 3, resumable), and a later invocation with the same flags
// plus -resume skips every journaled run and produces byte-identical
// artifacts. See EXPERIMENTS.md ("Interrupting and resuming a campaign").
//
// With -workers http://a:8080,http://b:8080 the detection campaign's runs are
// instead dispatched as shards to a fleet of cordd workers (PROTOCOL.md §6):
// outcomes stream back into the checkpoint journal and aggregation reads them
// from there, so the artifacts are byte-identical to a local run regardless of
// worker count or failure schedule. See EXPERIMENTS.md ("Running a
// distributed campaign").
//
// Usage:
//
//	cordbench -all -injections 60
//	cordbench -fig12 -fig16 -procs 8
//	cordbench -all -injections 8 -json out/
//	cordbench -all -injections 8 -diff out/ -diff-rel 0.05
//	cordbench -all -injections 8 -checkpoint ckpt/ -json out/
//	cordbench -all -injections 8 -checkpoint ckpt/ -resume -json out/
//	cordbench -fig12 -workers http://localhost:8080,http://localhost:8081 -json out/
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"syscall"
	"text/tabwriter"

	"cord/internal/chaos"
	"cord/internal/checkpoint"
	"cord/internal/experiment"
	"cord/internal/workload"
)

// journalName is the checkpoint journal's file name inside -checkpoint <dir>.
const journalName = "journal.cordckpt"

func main() {
	os.Exit(run())
}

// parseApps resolves the -apps comma list to workloads; an empty spec means
// "all of Table 1" (a nil slice, which Options.withDefaults expands). An
// unknown or repeated name is an error.
func parseApps(spec string) ([]workload.App, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	names := strings.Split(spec, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	return workload.ByNames(names)
}

// validateFlags rejects degenerate campaign parameters up front: zero or
// negative injection counts produce empty figures, non-positive scales
// produce empty workloads, and negative worker counts read as "default" far
// downstream — all of which used to surface as confusing campaign output
// instead of a usage error.
func validateFlags(injections, scale, ovScale, procs, dirProcs int) error {
	if injections <= 0 {
		return fmt.Errorf("-injections must be at least 1, got %d", injections)
	}
	if scale <= 0 {
		return fmt.Errorf("-scale must be at least 1, got %d", scale)
	}
	if ovScale <= 0 {
		return fmt.Errorf("-overhead-scale must be at least 1, got %d", ovScale)
	}
	if procs < 0 {
		return fmt.Errorf("-procs must be >= 0 (0 selects all CPUs), got %d", procs)
	}
	if dirProcs < 2 {
		return fmt.Errorf("-directory-procs must be at least 2, got %d", dirProcs)
	}
	return nil
}

func run() int {
	var (
		all        = flag.Bool("all", false, "produce every table and figure")
		table1     = flag.Bool("table1", false, "Table 1: application catalogue")
		fig10      = flag.Bool("fig10", false, "Fig 10: injections causing data races")
		fig11      = flag.Bool("fig11", false, "Fig 11: execution-time overhead")
		fig12      = flag.Bool("fig12", false, "Fig 12: CORD problem detection")
		fig13      = flag.Bool("fig13", false, "Fig 13: CORD raw race detection")
		fig14      = flag.Bool("fig14", false, "Fig 14: buffering-limit problem detection")
		fig15      = flag.Bool("fig15", false, "Fig 15: buffering-limit raw races")
		fig16      = flag.Bool("fig16", false, "Fig 16: D sweep, problems")
		fig17      = flag.Bool("fig17", false, "Fig 17: D sweep, raw races")
		area       = flag.Bool("area", false, "chip-area overhead arithmetic")
		replayFl   = flag.Bool("replay", false, "record/replay verification")
		dirFl      = flag.Bool("directory", false, "directory-coherence extension traffic")
		dirProcs   = flag.Int("directory-procs", 16, "processor count for -directory")
		injections = flag.Int("injections", 40, "injection runs per application")
		scale      = flag.Int("scale", 1, "workload scale for detection figures")
		ovScale    = flag.Int("overhead-scale", 4, "workload scale for Fig 11")
		seed       = flag.Uint64("seed", 0xC0DD, "campaign base seed")
		procs      = flag.Int("procs", 0, "host worker goroutines for campaign runs (0 = all CPUs); does not affect results")
		quiet      = flag.Bool("q", false, "suppress progress lines")
		jsonDir    = flag.String("json", "", "also write one BENCH_<id>.json artifact per selected figure/table into this directory")
		diffDir    = flag.String("diff", "", "diff the fresh run against BENCH_<id>.json baselines in this directory (exit 1 on differences)")
		diffAbs    = flag.Float64("diff-abs", 0, "absolute per-cell tolerance for -diff")
		diffRel    = flag.Float64("diff-rel", 0, "relative per-cell tolerance for -diff (0.05 = 5%)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file")
		ckptDir    = flag.String("checkpoint", "", "journal completed runs into this directory; interrupted campaigns can be resumed with -resume")
		resume     = flag.Bool("resume", false, "with -checkpoint: reuse journaled runs from an earlier interrupted invocation")
		appsFl     = flag.String("apps", "", "comma-separated application subset (default: all of Table 1)")
		workersFl  = flag.String("workers", "", "comma-separated cordd base URLs; dispatches the detection campaign to this fleet instead of running it locally (PROTOCOL.md §6)")
		registryFl = flag.String("registry", "", "fleet registry base URL; resolves workers from GET /v1/fleet/workers and follows membership as it changes (PROTOCOL.md §7)")
		shardRuns  = flag.Int("shard-runs", 8, "with -workers/-registry: maximum injection runs per dispatched shard")
		progAddr   = flag.String("progress-addr", "", "with -workers/-registry: serve GET /v1/campaign/progress on this address during dispatch")
	)
	flag.Parse()

	if err := validateFlags(*injections, *scale, *ovScale, *procs, *dirProcs); err != nil {
		fmt.Fprintf(os.Stderr, "cordbench: %v\n", err)
		flag.Usage()
		return 2
	}
	if *diffAbs < 0 || *diffRel < 0 {
		fmt.Fprintf(os.Stderr, "cordbench: -diff-abs and -diff-rel must be >= 0\n")
		flag.Usage()
		return 2
	}
	if *resume && *ckptDir == "" {
		fmt.Fprintf(os.Stderr, "cordbench: -resume requires -checkpoint <dir>\n")
		flag.Usage()
		return 2
	}
	apps, err := parseApps(*appsFl)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cordbench: -apps: %v\n", err)
		flag.Usage()
		return 2
	}
	if *workersFl != "" && *registryFl != "" {
		fmt.Fprintf(os.Stderr, "cordbench: -workers and -registry are mutually exclusive (a static list or dynamic discovery, not both)\n")
		flag.Usage()
		return 2
	}
	var workerURLs []string
	if *workersFl != "" || *registryFl != "" {
		if *shardRuns < 1 {
			fmt.Fprintf(os.Stderr, "cordbench: -shard-runs must be at least 1, got %d\n", *shardRuns)
			flag.Usage()
			return 2
		}
	}
	if *workersFl != "" {
		workerURLs, err = parseWorkers(*workersFl)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cordbench: %v\n", err)
			flag.Usage()
			return 2
		}
	}
	if *registryFl != "" && !strings.HasPrefix(*registryFl, "http://") && !strings.HasPrefix(*registryFl, "https://") {
		fmt.Fprintf(os.Stderr, "cordbench: -registry must be an http(s) base URL, got %q\n", *registryFl)
		flag.Usage()
		return 2
	}

	if *all {
		*table1, *fig10, *fig11, *fig12, *fig13 = true, true, true, true, true
		*fig14, *fig15, *fig16, *fig17, *area, *replayFl, *dirFl = true, true, true, true, true, true, true
	}
	if !(*table1 || *fig10 || *fig11 || *fig12 || *fig13 || *fig14 || *fig15 || *fig16 || *fig17 || *area || *replayFl || *dirFl) {
		flag.Usage()
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cordbench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cordbench: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cordbench: %v\n", err)
				return
			}
			defer f.Close()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "cordbench: writing heap profile: %v\n", err)
			}
		}()
	}

	opts := experiment.Options{Scale: *scale, Injections: *injections, BaseSeed: *seed, Procs: *procs, Apps: apps}
	if !*quiet {
		opts.Progress = os.Stderr
	}

	cha, err := chaos.FromEnv()
	if err != nil {
		fmt.Fprintf(os.Stderr, "cordbench: %s: %v\n", chaos.EnvVar, err)
		return 2
	}
	if cha.Active() {
		fmt.Fprintf(os.Stderr, "cordbench: %s\n", cha)
		opts.Chaos = cha
	}

	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "cordbench: %v\n", err)
			return 1
		}
		jl, err := checkpoint.Open(filepath.Join(*ckptDir, journalName))
		if err != nil {
			fmt.Fprintf(os.Stderr, "cordbench: opening checkpoint journal: %v\n", err)
			return 1
		}
		defer jl.Close()
		if jl.Len() > 0 && !*resume {
			fmt.Fprintf(os.Stderr, "cordbench: %s already holds %d journaled runs; pass -resume to continue that campaign, or point -checkpoint at an empty directory\n",
				jl.Path(), jl.Len())
			return 2
		}
		if !*quiet && jl.Len() > 0 {
			fmt.Fprintf(os.Stderr, "cordbench: resuming; %d journaled runs will be reused where the campaign matches\n", jl.Len())
		}
		opts.Checkpoint = jl
	}

	// SIGINT/SIGTERM drain in-flight runs (journaling them under -checkpoint)
	// and exit resumable; a second signal aborts immediately.
	interrupt := make(chan struct{})
	opts.Interrupt = interrupt
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "cordbench: signal received; draining in-flight runs (send again to abort)")
		close(interrupt)
		<-sigCh
		os.Exit(1)
	}()

	out := os.Stdout
	errf := func(err error) int {
		if errors.Is(err, experiment.ErrInterrupted) {
			if opts.Checkpoint != nil {
				fmt.Fprintf(os.Stderr, "cordbench: interrupted; %d completed runs are journaled in %s — rerun with the same flags plus -resume to continue\n",
					opts.Checkpoint.Len(), opts.Checkpoint.Path())
			} else {
				fmt.Fprintln(os.Stderr, "cordbench: interrupted (no -checkpoint, so completed runs were not journaled)")
			}
			return 3
		}
		fmt.Fprintf(os.Stderr, "cordbench: %v\n", err)
		return 1
	}
	var artifacts []experiment.Artifact

	if *table1 {
		rows, err := experiment.RunTable1(opts)
		if err != nil {
			return errf(err)
		}
		fmt.Fprintln(out, "TABLE 1 — applications at this scale")
		tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		experiment.RenderTable1(rows, tw)
		tw.Flush()
		fmt.Fprintln(out)
		artifacts = append(artifacts, experiment.Table1Artifact(rows, opts.Meta()))
	}

	if *area {
		f := experiment.AreaFigure()
		if err := f.Render(out); err != nil {
			return errf(err)
		}
		artifacts = append(artifacts, experiment.FigureArtifact(f, opts.Meta()))
	}

	needDetection := *fig10 || *fig12 || *fig13 || *fig14 || *fig15 || *fig16 || *fig17
	if needDetection && (len(workerURLs) > 0 || *registryFl != "") {
		// The journal is the fleet's merge point, so dispatch needs one even
		// without -checkpoint; an ephemeral journal gives the same
		// byte-identical aggregation, just without crash-safe resume.
		if opts.Checkpoint == nil {
			tmp, err := os.MkdirTemp("", "cordbench-fleet-")
			if err != nil {
				return errf(err)
			}
			defer os.RemoveAll(tmp)
			jl, err := checkpoint.Open(filepath.Join(tmp, journalName))
			if err != nil {
				return errf(fmt.Errorf("opening ephemeral fleet journal: %w", err))
			}
			defer jl.Close()
			opts.Checkpoint = jl
			if !*quiet {
				fmt.Fprintln(os.Stderr, "cordbench: no -checkpoint; fleet outcomes merge through an ephemeral journal (pass -checkpoint <dir> for crash-safe resume)")
			}
		}
		cfg := fleetConfig{
			Workers:      workerURLs,
			Registry:     strings.TrimRight(*registryFl, "/"),
			ShardRuns:    *shardRuns,
			Client:       &http.Client{Timeout: fleetClientTimeout},
			Policy:       fleetRetryPolicy,
			ProgressAddr: *progAddr,
		}
		if err := fleetDispatch(opts, cfg); err != nil {
			return errf(err)
		}
	}
	if needDetection {
		res, err := experiment.RunDetection(opts)
		if err != nil {
			return errf(err)
		}
		figs := []struct {
			want bool
			fig  experiment.Figure
		}{
			{*fig10, res.Fig10()},
			{*fig12, res.Fig12()},
			{*fig13, res.Fig13()},
			{*fig14, res.Fig14()},
			{*fig15, res.Fig15()},
			{*fig16, res.Fig16()},
			{*fig17, res.Fig17()},
		}
		for _, f := range figs {
			if !f.want {
				continue
			}
			fig := f.fig
			if err := fig.Render(out); err != nil {
				return errf(err)
			}
			artifacts = append(artifacts, experiment.FigureArtifact(fig, opts.Meta()))
		}
		if n := res.FalsePositives(); n != 0 {
			fmt.Fprintf(out, "WARNING: %d oracle-unconfirmed CORD reports (expected 0)\n", n)
		} else {
			fmt.Fprintln(out, "false positives across the campaign: 0 (as the paper claims)")
		}
		fmt.Fprintln(out)
	}

	if *fig11 {
		ovOpts := opts
		ovOpts.Scale = *ovScale
		rows, fig, err := experiment.RunOverhead(ovOpts)
		if err != nil {
			return errf(err)
		}
		if err := fig.Render(out); err != nil {
			return errf(err)
		}
		artifacts = append(artifacts, experiment.OverheadArtifact(rows, fig, ovOpts.Meta()))
	}

	if *replayFl {
		rows, err := experiment.RunReplayCheck(opts)
		if err != nil {
			return errf(err)
		}
		fmt.Fprintln(out, "RECORD/REPLAY — §3.3 verification")
		tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		experiment.RenderReplay(rows, tw)
		tw.Flush()
		fmt.Fprintln(out)
		artifacts = append(artifacts, experiment.ReplayArtifact(rows, opts.Meta()))
	}

	if *dirFl {
		rows, err := experiment.RunDirectory(opts, *dirProcs)
		if err != nil {
			return errf(err)
		}
		fmt.Fprintf(out, "DIRECTORY EXTENSION — §2.5, %d processors\n", *dirProcs)
		tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		experiment.RenderDirectory(rows, *dirProcs, tw)
		tw.Flush()
		fmt.Fprintln(out)
		artifacts = append(artifacts, experiment.DirectoryArtifact(rows, *dirProcs, opts.Meta()))
	}

	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			return errf(err)
		}
		for _, a := range artifacts {
			path, err := experiment.WriteArtifact(*jsonDir, a)
			if err != nil {
				return errf(err)
			}
			if !*quiet {
				fmt.Fprintf(os.Stderr, "wrote %s\n", path)
			}
		}
	}

	if *diffDir != "" {
		dopts := experiment.DiffOptions{Default: experiment.Tolerance{Abs: *diffAbs, Rel: *diffRel}}
		bad := 0
		for _, a := range artifacts {
			base, err := experiment.ReadArtifact(filepath.Join(*diffDir, experiment.ArtifactFileName(a.ID)))
			if err != nil {
				fmt.Fprintf(out, "diff %s: %v\n", a.ID, err)
				bad++
				continue
			}
			diffs := experiment.DiffArtifacts(a, base, dopts)
			if len(diffs) == 0 {
				fmt.Fprintf(out, "diff %s: ok\n", a.ID)
				continue
			}
			bad++
			for _, d := range diffs {
				fmt.Fprintf(out, "diff %s\n", d)
			}
		}
		if bad > 0 {
			fmt.Fprintf(out, "diff: %d of %d artifacts differ from %s\n", bad, len(artifacts), *diffDir)
			return 1
		}
		fmt.Fprintf(out, "diff: all %d artifacts match %s within tolerance\n", len(artifacts), *diffDir)
	}
	return 0
}
