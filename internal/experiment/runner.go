// Package experiment reproduces the paper's evaluation (§4): the injection
// campaign behind Figures 10 and 12–17, the performance-overhead comparison
// of Figure 11, the Table 1 catalogue, the order-log/replay verification of
// §3.3, and the chip-area arithmetic of §2.3–2.4.
//
// # Campaigns decompose into independent runs
//
// Every campaign in this package — fault injection (RunDetection), per-app
// sizing (RunTable1), overhead measurement (RunOverhead), directory traffic
// (RunDirectory), and record/replay verification (RunReplayCheck) — is a
// flat list of independent simulations. Each run constructs its own
// workload, engine, and detectors, shares no state with any other run, and
// is fully determined by its seed. The seed is derived purely from campaign
// parameters — (BaseSeed, application index, configuration, run index) —
// never from wall-clock time or from what other runs did.
//
// That property is what makes campaign-level parallelism free of
// result-level consequences: Options.Procs fans the run list out across a
// worker pool, results are collected keyed by run index and aggregated in
// index order, so the output is bit-identical at Procs: 1 and Procs: N.
// Execution order affects only wall-clock time; seeds, not scheduling,
// define results.
//
// # Campaigns are crash-safe
//
// The same property makes campaigns resumable: a run's identity — campaign
// name, a fingerprint of the campaign configuration, application index, run
// index — names its outcome completely. With Options.Checkpoint set, every
// completed run's outcome is appended to a crash-safe journal
// (internal/checkpoint) keyed by that identity, and a restarted campaign
// loads journaled outcomes instead of re-simulating them. Aggregation code
// is unchanged and order-deterministic, so a campaign resumed after a crash
// produces artifacts byte-identical to an uninterrupted one.
//
// A run that fails aborts the campaign: it is a pure function of its seed,
// so running it again would fail the same way. Closing Options.Interrupt
// stops new runs from dispatching, lets in-flight runs finish (and
// journal), and surfaces ErrInterrupted — the graceful-drain path cordbench
// wires to SIGINT/SIGTERM.
package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sync"

	"cord/internal/checkpoint"
	"cord/internal/sim"
	"cord/internal/workload"
)

// campaignJitter is the per-operation scheduling jitter (in cycles) every
// detection-style campaign run uses, so that different seeds explore
// different interleavings (§3.4 methodology). Overhead runs use a smaller
// jitter of their own to keep cycle counts comparable.
const campaignJitter = 7

// ErrInterrupted reports that a campaign stopped early because
// Options.Interrupt closed. In-flight runs were drained and journaled first,
// so a checkpointed campaign can be resumed from where it stopped.
var ErrInterrupted = errors.New("experiment: campaign interrupted")

// runSim executes one simulation of app under the campaign's shared
// conventions: the workload is built at the campaign's Scale, cfg.Jitter
// defaults to campaignJitter, and errors are wrapped with the campaign
// stage and application name. threads is the workload's thread count —
// o.Threads for every campaign except the directory experiment, which
// passes its own processor count. All campaign entry points construct
// their runs through this one helper.
func (o Options) runSim(stage string, app workload.App, threads int, cfg sim.Config) (sim.Result, error) {
	if cfg.Jitter == 0 {
		cfg.Jitter = campaignJitter
	}
	if cfg.Cancel == nil {
		cfg.Cancel = o.Cancel
	}
	res, err := sim.New(cfg, app.Build(o.Scale, threads)).Run()
	if err != nil {
		return res, fmt.Errorf("experiment: %s %s: %w", stage, app.Name, err)
	}
	return res, nil
}

// fingerprint condenses the campaign configuration that determines run
// outcomes — base seed, scale, threads, injections, app list — into a short
// stable token embedded in every checkpoint key. A journal written under one
// configuration is silently inapplicable to any other: lookups simply miss.
func (o Options) fingerprint() string {
	b, err := json.Marshal(o.Meta())
	if err != nil { // CampaignMeta always marshals
		return "unfingerprintable"
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// runKey is the deterministic identity of one campaign run — the checkpoint
// journal key. It embeds the checkpoint schema version so outcome-shape
// changes invalidate stale journals instead of mis-decoding them.
func (o Options) runKey(campaign string, app, run int) string {
	return fmt.Sprintf("v%d|%s|%s|app=%d|run=%d",
		checkpoint.SchemaVersion, campaign, o.fingerprint(), app, run)
}

// journaledRun executes one campaign run under the checkpoint journal: a
// run already journaled is skipped, a fresh one is computed and appended.
// out must point at the run's JSON-encodable outcome cell; fn computes it.
// On a checkpoint hit the journaled outcome is decoded into out and fn never
// runs — which is what makes resumed campaigns byte-identical: the
// aggregation sees exactly the bytes the original run produced. fn runs at
// most once; its error is the run's, and aborts the campaign.
func (o Options) journaledRun(campaign string, app, run int, out any, fn func() error) error {
	var key string
	if o.Checkpoint != nil {
		key = o.runKey(campaign, app, run)
		if ok, err := o.Checkpoint.Lookup(key, out); err != nil {
			return fmt.Errorf("experiment: resuming %s: %w", key, err)
		} else if ok {
			return nil
		}
	}
	if err := fn(); err != nil {
		return err
	}
	if o.Checkpoint != nil {
		if err := o.Checkpoint.Append(key, out); err != nil && o.Progress != nil {
			// A journal failure costs durability, not correctness: the run's
			// outcome is already in memory, it just re-executes on resume.
			fmt.Fprintf(o.Progress, "checkpoint: %s not journaled (%v); the run would re-execute on resume\n",
				key, err)
		}
	}
	o.Chaos.RunCompleted()
	return nil
}

// interrupted reports whether o.Interrupt has closed.
func (o Options) interrupted() bool {
	select {
	case <-o.Interrupt:
		return true
	default:
		return false
	}
}

// forEach runs fn(i) for every i in [0, n) on up to o.Procs concurrent
// workers. fn must write its result into index-keyed storage (a slice cell
// it alone owns), so that collected output is independent of scheduling;
// aggregation then happens in index order on the caller's side.
//
// Indices are handed out heaviest first: in descending Table 1 access count
// of app(i), the application of run i (workload.HeaviestFirst, the fleet
// coordinator's rule), so that the longest runs start while every worker is
// busy.
//
// The first error cancels the shared context, which stops new work from
// being dispatched; runs already in flight finish. Workers that fail after
// the cancellation still record their own first error, and forEach returns
// every distinct per-worker first error joined with errors.Join — a
// campaign that fails on three applications at once reports all three, not
// whichever happened to lose the race.
//
// Closing o.Interrupt likewise stops dispatch and drains in-flight runs
// (journaling them, when checkpointing is on), then forEach returns
// ErrInterrupted.
func (o Options) forEach(n int, app func(i int) string, fn func(i int) error) error {
	order := workload.HeaviestFirst(n, app)
	procs := o.Procs
	if procs > n {
		procs = n
	}
	if procs <= 1 {
		for _, i := range order {
			if o.interrupted() {
				return ErrInterrupted
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	idx := make(chan int)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					continue // drain remaining indices after cancellation
				}
				if err := fn(i); err != nil {
					if errs[w] == nil {
						errs[w] = err
					}
					cancel()
				}
			}
		}(w)
	}
	interrupted := false
feed:
	for _, i := range order {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		case <-o.Interrupt:
			interrupted = true
			break feed
		}
	}
	close(idx)
	wg.Wait()

	// Distinct first-per-worker errors, in worker order for determinism of
	// structure; duplicates (the same wrapped failure observed by several
	// workers) collapse.
	var distinct []error
	seen := map[string]bool{}
	for _, err := range errs {
		if err == nil || seen[err.Error()] {
			continue
		}
		seen[err.Error()] = true
		distinct = append(distinct, err)
	}
	if len(distinct) > 0 {
		return errors.Join(distinct...)
	}
	if interrupted || o.interrupted() {
		return ErrInterrupted
	}
	return nil
}

// appName is forEach's app function for a list indexed like o.Apps.
func (o Options) appName(i int) string { return o.Apps[i].Name }

// syncWriter serializes concurrent Write calls so progress lines from
// parallel workers never interleave mid-line.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func newSyncWriter(w io.Writer) io.Writer {
	if w == nil {
		return nil
	}
	if _, ok := w.(*syncWriter); ok {
		return w
	}
	return &syncWriter{w: w}
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// defaultProcs is the worker count when Options.Procs is unset.
func defaultProcs() int { return runtime.NumCPU() }
