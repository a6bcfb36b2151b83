package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"cord/internal/experiment"
	"cord/internal/httpretry"
	"cord/internal/server"
)

// This file is the coordinator half of the distributed campaign protocol
// (PROTOCOL.md §6 and §7): -workers (or -registry) fans the detection
// campaign's run shards out over a cordd fleet, journals every received
// outcome cell under its run identity, and leaves RunDetection to aggregate
// the journal exactly as it would a local run. The journal is the merge
// point — remote cells are byte-identical to local ones (the §6 contract),
// so the artifacts cannot depend on worker count, shard order, coalescing,
// or failure schedule. Scheduling policy itself lives in fleetpool.go.

// fleetClientTimeout bounds one shard request end to end: worker queue wait
// plus serial shard execution. Workers bound sessions themselves
// (SessionTimeout), so this mainly catches dead TCP peers.
const fleetClientTimeout = 5 * time.Minute

// fleetRetryPolicy is the production shard-retry ladder: bounded attempts,
// 429 Retry-After hints honored, doubling fallback for transport errors and
// 5xx — jittered per worker URL so a re-shard storm after a worker death
// does not march the survivors' retries in lockstep — capped so a
// misbehaving worker cannot stall the queue for long.
var fleetRetryPolicy = httpretry.Policy{Attempts: 5, Fallback: 250 * time.Millisecond, Cap: 5 * time.Second, Jitter: 0.5}

// fleetConfig bundles the coordinator's dispatch parameters. Exactly one of
// Workers (static -workers list) or Registry (dynamic §7 discovery) names
// the fleet.
type fleetConfig struct {
	// Workers are static worker base URLs; membership is fixed for the
	// campaign and losing all of them fails the dispatch.
	Workers []string
	// Registry is a §7 registry base URL: the worker set is resolved from
	// GET /v1/fleet/workers, re-resolved every PollInterval (joiners are
	// probed and put to work mid-campaign), and losing every worker holds
	// the remaining shards for up to JoinGrace awaiting a replacement.
	Registry  string
	ShardRuns int
	Client    *http.Client
	Policy    httpretry.Policy
	// ProgressAddr, when non-empty, serves GET /v1/campaign/progress on
	// this listen address for the duration of the dispatch.
	ProgressAddr string
	// PollInterval is the registry re-resolve cadence (default 2s).
	PollInterval time.Duration
	// JoinGrace is how long an all-workers-lost campaign waits for a
	// joiner before failing, registry mode only (default 30s).
	JoinGrace time.Duration
}

func (c fleetConfig) withDefaults() fleetConfig {
	if c.PollInterval <= 0 {
		c.PollInterval = 2 * time.Second
	}
	if c.JoinGrace <= 0 {
		c.JoinGrace = 30 * time.Second
	}
	return c
}

// parseWorkers splits the -workers list into base URLs.
func parseWorkers(spec string) ([]string, error) {
	var urls []string
	for _, part := range strings.Split(spec, ",") {
		u := strings.TrimRight(strings.TrimSpace(part), "/")
		if u == "" {
			return nil, fmt.Errorf("-workers entry %q is empty", part)
		}
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return nil, fmt.Errorf("-workers entry %q must be an http(s) base URL", part)
		}
		urls = append(urls, u)
	}
	if len(urls) == 0 {
		return nil, fmt.Errorf("-workers must name at least one worker")
	}
	return urls, nil
}

// shardWork is one dispatchable shard: a contiguous run range of one app,
// plus the §7 origin it will declare if it was requeued.
type shardWork struct {
	rng    experiment.ShardRange
	origin string // "" or "requeue"
}

// id is the shard's id, a deterministic function of its content
// (`<app>.<lo>.<hi>`): a re-dispatched campaign re-sends byte-identical
// shards, and idempotent workers answer from determinism alone.
func (s shardWork) id() string { return fmt.Sprintf("%s.%d.%d", s.rng.App, s.rng.Lo, s.rng.Hi) }

// runs is the shard's injection-run count.
func (s shardWork) runs() int { return s.rng.Hi - s.rng.Lo }

// buildShards cuts the campaign into per-app chunks of at most shardRuns
// injection runs. The scheduler may later coalesce contiguous chunks into
// one request.
func buildShards(meta experiment.CampaignMeta, shardRuns int) []shardWork {
	var shards []shardWork
	for _, app := range meta.Apps {
		for lo := 0; lo < meta.Injections; lo += shardRuns {
			hi := min(lo+shardRuns, meta.Injections)
			shards = append(shards, shardWork{rng: experiment.ShardRange{App: app, Lo: lo, Hi: hi}})
		}
	}
	return shards
}

// errorPayload mirrors the service's error body (PROTOCOL.md §5).
type errorPayload struct {
	Schema int    `json:"schema"`
	Code   string `json:"code"`
	Error  string `json:"error"`
}

// fatalStatus reports whether an HTTP status can never succeed on retry or
// on another worker: the request itself is wrong (bad configuration,
// fingerprint skew, shard-id conflict), so re-sending it anywhere is wasted
// work at best and silent corruption at worst.
func fatalStatus(status int) bool {
	switch status {
	case http.StatusBadRequest, http.StatusConflict, http.StatusUnprocessableEntity,
		http.StatusRequestEntityTooLarge, http.StatusNotFound, http.StatusMethodNotAllowed:
		return true
	}
	return false
}

// fatalDispatchError marks failures that must abort the whole campaign
// rather than fail over to another worker.
type fatalDispatchError struct{ err error }

func (e fatalDispatchError) Error() string { return e.err.Error() }
func (e fatalDispatchError) Unwrap() error { return e.err }

// postShard sends one shard to one worker under the retry policy: 429
// sleeps the server's Retry-After hint, transport errors and 5xx sleep the
// doubling fallback (jittered per worker URL), and a fatal status aborts the
// campaign. onTransient fires on each retried failure so the scheduler can
// mark the worker suspect. A worker that exhausts the attempt budget is
// reported dead via a non-fatal error.
func postShard(client *http.Client, url string, req server.CampaignShardRequest, policy httpretry.Policy, progress func(string, ...any), onTransient func()) ([]experiment.Cell, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fatalDispatchError{fmt.Errorf("encoding shard %s: %w", req.ShardID, err)}
	}
	var lastErr error
	for attempt := 1; attempt <= policy.Attempts; attempt++ {
		resp, err := client.Post(url+"/v1/campaign/shard", "application/json", bytes.NewReader(body))
		if err != nil {
			lastErr = err
			onTransient()
			if attempt < policy.Attempts {
				d := policy.BackoffKeyed(url, attempt)
				progress("fleet: %s: shard %s attempt %d/%d failed (%v); backing off %v",
					url, req.ShardID, attempt, policy.Attempts, err, d)
				time.Sleep(d)
			}
			continue
		}
		b, readErr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if readErr != nil {
			lastErr = readErr
			onTransient()
			if attempt < policy.Attempts {
				time.Sleep(policy.BackoffKeyed(url, attempt))
			}
			continue
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			var sr server.CampaignShardResponse
			if err := json.Unmarshal(b, &sr); err != nil {
				return nil, fatalDispatchError{fmt.Errorf("worker %s: shard %s: unparsable response: %v", url, req.ShardID, err)}
			}
			return sr.Cells, nil
		case resp.StatusCode == http.StatusTooManyRequests:
			// Pushback is flow control, not sickness: no onTransient.
			d := policy.RetryAfterKeyed(resp.Header.Get("Retry-After"), url, attempt)
			lastErr = fmt.Errorf("worker %s pushed back (429)", url)
			if attempt < policy.Attempts {
				progress("fleet: %s: shard %s throttled; honoring Retry-After %v", url, req.ShardID, d)
				time.Sleep(d)
			}
		case fatalStatus(resp.StatusCode):
			var ep errorPayload
			_ = json.Unmarshal(b, &ep)
			return nil, fatalDispatchError{fmt.Errorf("worker %s rejected shard %s: status %d code %q: %s",
				url, req.ShardID, resp.StatusCode, ep.Code, ep.Error)}
		default: // 5xx, 503 draining, timeouts: maybe transient, maybe dying
			lastErr = fmt.Errorf("worker %s: shard %s: status %d", url, req.ShardID, resp.StatusCode)
			onTransient()
			if attempt < policy.Attempts {
				time.Sleep(policy.BackoffKeyed(url, attempt))
			}
		}
	}
	return nil, fmt.Errorf("worker %s gave up after %d attempts: %w", url, policy.Attempts, lastErr)
}

// probeWorker sends the §6 plan probe. A disagreeing fingerprint or a fatal
// status returns a fatalDispatchError; any other failure is a skip (the
// worker is unusable right now, not proof the campaign is wrong).
func probeWorker(client *http.Client, url string, planBody []byte, fp string) error {
	resp, err := client.Post(url+"/v1/campaign/plan", "application/json", bytes.NewReader(planBody))
	if err != nil {
		return fmt.Errorf("unreachable: %w", err)
	}
	b, readErr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if readErr != nil || resp.StatusCode != http.StatusOK {
		var ep errorPayload
		_ = json.Unmarshal(b, &ep)
		if fatalStatus(resp.StatusCode) {
			return fatalDispatchError{fmt.Errorf("%s rejected the campaign plan: status %d code %q: %s",
				url, resp.StatusCode, ep.Code, ep.Error)}
		}
		return fmt.Errorf("plan probe failed (status %d)", resp.StatusCode)
	}
	var plan server.CampaignPlanResponse
	if err := json.Unmarshal(b, &plan); err != nil {
		return fatalDispatchError{fmt.Errorf("%s: unparsable plan response: %v", url, err)}
	}
	if plan.Fingerprint != fp {
		return fatalDispatchError{fmt.Errorf("%s fingerprints the campaign %s, this coordinator %s: worker and coordinator builds or configurations disagree — refusing to merge its results",
			url, plan.Fingerprint, fp)}
	}
	return nil
}

// resolveRegistry lists the live workers from a §7 registry.
func resolveRegistry(client *http.Client, registry string) ([]string, error) {
	resp, err := client.Get(registry + "/v1/fleet/workers")
	if err != nil {
		return nil, fmt.Errorf("fleet: registry %s unreachable: %w", registry, err)
	}
	b, readErr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if readErr != nil || resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fleet: registry %s listing failed (status %d)", registry, resp.StatusCode)
	}
	var list server.FleetWorkersResponse
	if err := json.Unmarshal(b, &list); err != nil {
		return nil, fmt.Errorf("fleet: registry %s: unparsable listing: %v", registry, err)
	}
	urls := make([]string, 0, len(list.Workers))
	for _, w := range list.Workers {
		urls = append(urls, strings.TrimRight(w.URL, "/"))
	}
	return urls, nil
}

// startProgressServer serves GET /v1/campaign/progress on addr until stop is
// called, returning the bound base URL (addr may carry port 0).
func startProgressServer(addr string, snapshot func() server.CampaignProgress) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("fleet: progress listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/campaign/progress", server.ProgressHandler(snapshot))
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), func() { srv.Close() }, nil
}

// fleetDispatch executes the detection campaign's runs on a cordd fleet and
// journals every outcome cell into opts.Checkpoint. On return with nil
// error, every run identity of the campaign is journaled, so a subsequent
// RunDetection aggregates entirely from the journal without simulating
// anything locally.
//
// Every worker loop pulls from one shared queue, so a fast worker simply
// takes more shards than a slow one. Worker loss is survived by requeueing:
// a worker that exhausts its retry budget is dropped and its in-flight shard
// goes back to the queue head for the survivors (or, in registry mode, waits
// for a joiner) — still exactly-once, because the journal keyed by run
// identity is the merge point. Closing opts.Interrupt drains in-flight
// shards (journaling them) and returns experiment.ErrInterrupted; the
// journal then resumes the campaign exactly like a local -resume.
func fleetDispatch(opts experiment.Options, cfg fleetConfig) error {
	cfg = cfg.withDefaults()
	if opts.Checkpoint == nil {
		return errors.New("fleet dispatch needs a checkpoint journal as its merge point")
	}
	meta := opts.Meta()
	fp := opts.Fingerprint()
	campaign := "bench-" + fp
	progress := func(format string, args ...any) {
		if opts.Progress != nil {
			fmt.Fprintf(opts.Progress, format+"\n", args...)
		}
	}
	planBody, err := json.Marshal(server.CampaignPlanRequest{Campaign: campaign, Options: meta})
	if err != nil {
		return fmt.Errorf("fleet: encoding plan request: %w", err)
	}

	// Resolve the worker set: the static -workers list, or the registry's
	// current listing (retried across PollInterval for up to JoinGrace — a
	// fleet may still be registering when the coordinator starts).
	workerURLs := cfg.Workers
	if cfg.Registry != "" {
		deadline := time.Now().Add(cfg.JoinGrace)
		for {
			workerURLs, err = resolveRegistry(cfg.Client, cfg.Registry)
			if err == nil && len(workerURLs) > 0 {
				break
			}
			if time.Now().After(deadline) {
				if err == nil {
					err = fmt.Errorf("fleet: registry %s lists no workers", cfg.Registry)
				}
				return err
			}
			progress("fleet: registry has no workers yet; retrying in %v", cfg.PollInterval)
			time.Sleep(cfg.PollInterval)
		}
	}

	// Probe every worker's plan endpoint: agreement on the fingerprint is
	// the precondition for merging anything a worker says. Unreachable
	// workers are dropped with a warning; a disagreeing worker is version
	// or configuration skew and aborts the dispatch — its cells would merge
	// silently wrong.
	var live []string
	for _, url := range workerURLs {
		if err := probeWorker(cfg.Client, url, planBody, fp); err != nil {
			var fatal fatalDispatchError
			if errors.As(err, &fatal) {
				return fmt.Errorf("fleet: %w", err)
			}
			progress("fleet: %s: %v; dispatching without it", url, err)
			continue
		}
		live = append(live, url)
	}
	if len(live) == 0 {
		return fmt.Errorf("fleet: none of the %d workers is usable", len(workerURLs))
	}

	// Name every cell of the campaign, one full-range DetectKeys per app:
	// appKeys[app][0] is its count cell, appKeys[app][1+i] injection run i.
	var keys []string
	appKeys := make(map[string][]string, len(meta.Apps))
	for _, app := range meta.Apps {
		k, err := opts.DetectKeys(experiment.ShardRange{App: app, Lo: 0, Hi: meta.Injections})
		if err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
		appKeys[app] = k
		keys = append(keys, k...)
	}
	missing := func(k string) bool { return !opts.Checkpoint.Has(k) }

	// Cut the campaign into shards, skipping those fully journaled (resume).
	var shards []shardWork
	skipped := 0
	for _, w := range buildShards(meta, cfg.ShardRuns) {
		k := appKeys[w.rng.App]
		if !missing(k[0]) && !slices.ContainsFunc(k[1+w.rng.Lo:1+w.rng.Hi], missing) {
			skipped++
			continue
		}
		shards = append(shards, w)
	}
	progress("fleet: %d workers, %d shards of <=%d runs (%d already journaled)",
		len(live), len(shards), cfg.ShardRuns, skipped)
	if len(shards) == 0 {
		return nil
	}

	pool := newFleetPool(campaign, fp, cfg.ShardRuns, cfg.Registry != "", cfg.JoinGrace, len(keys))
	pool.seedJournaled(slices.DeleteFunc(slices.Clone(keys), missing))

	if cfg.ProgressAddr != "" {
		bound, stopProgress, err := startProgressServer(cfg.ProgressAddr, pool.snapshot)
		if err != nil {
			return err
		}
		defer stopProgress()
		progress("fleet: progress at %s/v1/campaign/progress", bound)
	}

	stopWatch := make(chan struct{})
	defer close(stopWatch)
	if opts.Interrupt != nil {
		go func() {
			select {
			case <-opts.Interrupt:
				pool.interrupt()
			case <-stopWatch:
			}
		}()
	}

	// Worker loops: take from the shared queue, execute, journal.
	var wg sync.WaitGroup
	runWorker := func(url string) {
		defer wg.Done()
		for {
			w, ok := pool.take(url)
			if !ok {
				return
			}
			req := server.CampaignShardRequest{
				Campaign:    campaign,
				ShardID:     w.id(),
				Fingerprint: fp,
				Options:     meta,
				Range:       w.rng,
				Origin:      w.origin,
			}
			start := time.Now()
			cells, err := postShard(cfg.Client, url, req, cfg.Policy, progress,
				func() { pool.markSuspect(url) })
			if err != nil {
				var fatal fatalDispatchError
				if errors.As(err, &fatal) {
					pool.fail(err)
					pool.workerDied(url, w, err) // releases the in-flight slot
					return
				}
				progress("fleet: dropping %s (%v); requeueing %s", url, err, w.id())
				pool.workerDied(url, w, err)
				return
			}
			// The journal is the merge point: Append compacts the wire
			// cells back to the exact bytes a local campaign journals, and
			// duplicate keys (count cells shared by shards of one app)
			// overwrite with identical bytes.
			var jerr error
			for _, c := range cells {
				if err := opts.Checkpoint.Append(c.Key, c.Data); err != nil {
					jerr = fmt.Errorf("fleet: journaling %s: %w", c.Key, err)
					break
				}
				pool.journaled(c.Key)
			}
			if jerr != nil {
				// Unlike a local run (where a lost journal entry only costs
				// resume time), the journal is the only copy of a remote
				// outcome — a failed append must stop the campaign before
				// aggregation runs on holes.
				pool.fail(jerr)
				pool.completed(url, w, time.Since(start))
				return
			}
			if w.origin != "" {
				progress("fleet: %s completed shard %s via %s (%d runs, %d cells)", url, w.id(), w.origin, w.runs(), len(cells))
			} else {
				progress("fleet: %s completed shard %s (%d runs, %d cells)", url, w.id(), w.runs(), len(cells))
			}
			pool.completed(url, w, time.Since(start))
		}
	}
	// Enqueue the shards before any worker loop starts: take reports the
	// campaign finished while runsRemaining is zero, so a loop that ran
	// ahead of the queue would exit at once.
	var started []string
	for _, url := range live {
		if pool.addWorker(url) {
			started = append(started, url)
		}
	}
	pool.enqueue(shards)
	for _, url := range started {
		wg.Add(1)
		go runWorker(url)
	}

	// Registry mode: re-resolve membership on a cadence, probing joiners
	// (and restarted workers, which re-register under their old URL) and
	// putting them to work mid-campaign. A joiner that disagrees on the
	// fingerprint is skipped with a warning, not fatal: nothing of its has
	// been merged, unlike the workers the campaign started with.
	stopMembership := make(chan struct{})
	membershipDone := make(chan struct{})
	if cfg.Registry != "" {
		go func() {
			defer close(membershipDone)
			tick := time.NewTicker(cfg.PollInterval)
			defer tick.Stop()
			for {
				select {
				case <-stopMembership:
					return
				case <-tick.C:
				}
				urls, err := resolveRegistry(cfg.Client, cfg.Registry)
				if err != nil {
					progress("%v; keeping current membership", err)
					continue
				}
				for _, url := range urls {
					if !pool.candidate(url) {
						continue
					}
					if err := probeWorker(cfg.Client, url, planBody, fp); err != nil {
						progress("fleet: joiner %s: %v; skipping", url, err)
						continue
					}
					if pool.addWorker(url) {
						progress("fleet: %s joined the campaign", url)
						wg.Add(1)
						go runWorker(url)
					}
				}
			}
		}()
	} else {
		close(membershipDone)
	}

	failed, interrupted := pool.waitDone()
	close(stopMembership)
	<-membershipDone
	wg.Wait()

	if failed != nil {
		return failed
	}
	if interrupted {
		return experiment.ErrInterrupted
	}
	return nil
}
