// Package server implements cordd, the long-running HTTP race-detection
// service: it accepts detection-run requests and binary CORD order logs,
// executes them as sessions on a bounded worker pool, and returns the
// repository's schema-versioned JSON encodings as responses.
//
// The service is the production front end to the same engine the CLIs drive
// in batch mode. Its shape is deliberately defensive: request bodies are
// size-limited before they reach the (already hardened) binary decoder,
// a full session queue pushes back with HTTP 429 + Retry-After instead of
// buffering unboundedly, client disconnects and per-session timeouts are
// propagated into the simulation engine as cancellation (sim.Config.Cancel),
// and shutdown drains accepted sessions before the process exits.
//
// Endpoints:
//
//	POST /v1/detect  — JSON DetectRequest body; runs one simulation under
//	                   the Ideal, vector-clock and CORD detectors and
//	                   returns a DetectResponse.
//	POST /v1/replay  — binary order log body (the format documented in
//	                   PROTOCOL.md) with run parameters in the query
//	                   string; replays the log and returns a ReplayResponse.
//	POST /v1/stream  — long-lived streaming ingestion of one binary order
//	                   log, decoded incrementally chunk by chunk; answers
//	                   with an end-of-stream StreamResponse summary (and,
//	                   unless verify=0, the one-shot DetectResponse of the
//	                   authoritative re-execution). See PROTOCOL.md §4.
//	POST /v1/campaign/plan
//	                 — validates a distributed-campaign configuration and
//	                   returns the worker's config fingerprint and run
//	                   geometry, without running anything. See PROTOCOL.md §6.
//	POST /v1/campaign/shard
//	                 — executes one campaign run-shard on the session pool
//	                   and returns its outcome cells keyed by run identity;
//	                   re-sent shards answer byte-identically. See
//	                   PROTOCOL.md §6.
//	POST /v1/fleet/register
//	                 — registers (or heartbeats) a worker in the fleet
//	                   registry; registrations expire after their TTL
//	                   without a heartbeat. See PROTOCOL.md §7.
//	GET  /v1/fleet/workers
//	                 — lists the live registered workers; coordinators
//	                   resolve their worker set here when run with
//	                   -registry. See PROTOCOL.md §7.
//	GET  /healthz    — liveness/readiness (503 while draining).
//	GET  /metrics    — cumulative Metrics counters and latency histograms.
//
// Streams have their own admission control (slots, byte/frame quotas, idle
// timeouts) because they are long-lived by design and must not starve the
// bounded pool the one-shot sessions run on.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"cord/internal/baseline"
	"cord/internal/core"
	"cord/internal/record"
	"cord/internal/sim"
	"cord/internal/trace"
	"cord/internal/workload"
)

// SchemaVersion stamps every response body, following the
// internal/experiment artifact convention: readers reject versions they do
// not understand instead of mis-parsing them.
const SchemaVersion = 2

// Request-domain bounds. Sessions are additionally bounded by the pool's
// per-session timeout, so these only reject configurations that are
// nonsensical rather than merely expensive.
const (
	// MaxThreads bounds the simulated thread count of one session.
	MaxThreads = 64
	// MaxScale bounds the workload scale factor of one session.
	MaxScale = 4096
)

// ErrBadRequest marks errors caused by the client's parameters or payload;
// the HTTP layer maps it to status 400.
var ErrBadRequest = errors.New("server: bad request")

// DetectRequest is the body of POST /v1/detect. Zero values select the
// defaults the CLIs use (scale 1, threads 4, D 16).
type DetectRequest struct {
	// App names one Table 1 application (see cordsim -list).
	App string `json:"app"`
	// Seed drives all scheduling jitter; identical requests reproduce
	// identical responses, byte for byte.
	Seed uint64 `json:"seed"`
	// Scale is the workload scale factor (default 1).
	Scale int `json:"scale,omitempty"`
	// Threads is the simulated thread/processor count (default 4).
	Threads int `json:"threads,omitempty"`
	// Inject, when non-zero, removes the Inject-th dynamic synchronization
	// instance (the paper's §3.4 fault injection).
	Inject uint64 `json:"inject,omitempty"`
	// D is the CORD sync-read window (default 16).
	D int `json:"d,omitempty"`
}

// ApplyDefaults fills zero-valued fields with the CLI defaults.
func (r *DetectRequest) ApplyDefaults() {
	if r.Scale == 0 {
		r.Scale = 1
	}
	if r.Threads == 0 {
		r.Threads = 4
	}
	if r.D == 0 {
		r.D = 16
	}
}

// Validate rejects out-of-domain parameters; every failure wraps
// ErrBadRequest.
func (r DetectRequest) Validate() error {
	if err := validateRun(r.App, r.Scale, r.Threads); err != nil {
		return err
	}
	if r.D < 1 {
		return fmt.Errorf("%w: d must be at least 1, got %d", ErrBadRequest, r.D)
	}
	return nil
}

// validateRun checks the identity of a run-shaped request: a known
// application within the size bounds. Failures wrap ErrBadRequest.
func validateRun(app string, scale, threads int) error {
	if _, err := workload.ByName(app); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return validateSize(scale, threads)
}

// validateSize checks a run's scale and thread count against the
// request-domain bounds. Failures wrap ErrBadRequest.
func validateSize(scale, threads int) error {
	if scale < 1 || scale > MaxScale {
		return fmt.Errorf("%w: scale must be in [1, %d], got %d", ErrBadRequest, MaxScale, scale)
	}
	if threads < 1 || threads > MaxThreads {
		return fmt.Errorf("%w: threads must be in [1, %d], got %d", ErrBadRequest, MaxThreads, threads)
	}
	return nil
}

// DetectorVerdict is one detector's summary for a run.
type DetectorVerdict struct {
	Name            string `json:"name"`
	RacyAccesses    int    `json:"racy_accesses"`
	ProblemDetected bool   `json:"problem_detected"`
}

// MaxRacesInResponse caps the rendered race list in a DetectResponse; the
// verdict counters are complete regardless.
const MaxRacesInResponse = 100

// DetectResponse is the result of one detection session: the engine result,
// each detector's verdict, and CORD's activity counters — the same
// schema-versioned shape cordsim -json writes.
type DetectResponse struct {
	Schema    int               `json:"schema"`
	App       string            `json:"app"`
	Seed      uint64            `json:"seed"`
	Scale     int               `json:"scale"`
	Threads   int               `json:"threads"`
	Inject    uint64            `json:"inject,omitempty"`
	D         int               `json:"d"`
	Result    sim.Result        `json:"result"`
	Detectors []DetectorVerdict `json:"detectors"`
	CordStats core.Stats        `json:"cord_stats"`
	LogBytes  int               `json:"log_bytes"`
	Races     []string          `json:"races,omitempty"`
}

// RunDetect executes one detection session: the requested application under
// the Ideal oracle, the L2-bounded vector-clock baseline, and a recording
// CORD detector — the cordsim configuration. Cancelling ctx stops the engine
// mid-run; the returned error is then ctx's error.
func RunDetect(ctx context.Context, req DetectRequest) (*DetectResponse, error) {
	resp, _, err := runDetectSession(ctx, req)
	return resp, err
}

// runDetectSession is RunDetect plus the order log the CORD detector
// recorded during the run. The streaming endpoint uses the log to check a
// client-streamed recording against the authoritative re-execution; the
// one-shot endpoint discards it.
func runDetectSession(ctx context.Context, req DetectRequest) (*DetectResponse, *record.Log, error) {
	req.ApplyDefaults()
	if err := req.Validate(); err != nil {
		return nil, nil, err
	}
	app, _ := workload.ByName(req.App)

	det := core.New(core.Config{Threads: req.Threads, Procs: req.Threads, D: req.D, Record: true})
	ideal := baseline.NewIdeal(req.Threads)
	vec := baseline.NewVecCache(baseline.VecConfig{Threads: req.Threads, Procs: req.Threads, Bound: baseline.BoundL2})

	res, err := sim.New(sim.Config{
		Seed:       req.Seed,
		Jitter:     7,
		InjectSkip: req.Inject,
		Observers:  []trace.Observer{ideal, vec, det},
		Cancel:     ctx.Done(),
	}, app.Build(req.Scale, req.Threads)).Run()
	if err != nil {
		if errors.Is(err, sim.ErrCanceled) && ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		return nil, nil, err
	}

	return NewDetectResponse(req, res, ideal, vec, det), det.Log(), nil
}

// NewDetectResponse builds the body of one finished run of req (defaults
// applied) from its result and the Ideal, vector-clock and CORD detectors
// that observed it: the one constructor behind both POST /v1/detect and
// cordsim -json, so the two are byte-identical for the same parameters.
func NewDetectResponse(req DetectRequest, res sim.Result, ideal *baseline.Ideal, vec *baseline.VecCache, det *core.Detector) *DetectResponse {
	return &DetectResponse{
		Schema:  SchemaVersion,
		App:     req.App,
		Seed:    req.Seed,
		Scale:   req.Scale,
		Threads: req.Threads,
		Inject:  req.Inject,
		D:       req.D,
		Result:  res,
		Detectors: []DetectorVerdict{
			{Name: ideal.Name(), RacyAccesses: ideal.RaceCount(), ProblemDetected: ideal.ProblemDetected()},
			{Name: vec.Name(), RacyAccesses: vec.RaceCount(), ProblemDetected: vec.ProblemDetected()},
			{Name: det.Name(), RacyAccesses: det.RaceCount(), ProblemDetected: det.ProblemDetected()},
		},
		CordStats: det.Stats(),
		LogBytes:  det.Log().SizeBytes(),
		Races:     raceStrings(det.Races()),
	}
}

// raceStrings renders races in detection order, capped at
// MaxRacesInResponse: the race list of every response body.
func raceStrings(rs []trace.Race) []string {
	var out []string
	for _, r := range rs[:min(len(rs), MaxRacesInResponse)] {
		out = append(out, r.String())
	}
	return out
}

// ReplayRequest carries the run parameters of POST /v1/replay (query-string
// encoded; the order log travels as the request body). The parameters must
// name the run that recorded the log — the same app, seed, scale and thread
// count — or the replay will diverge.
type ReplayRequest struct {
	App     string `json:"app"`
	Seed    uint64 `json:"seed"`
	Scale   int    `json:"scale"`
	Threads int    `json:"threads"`
	// InjectThread/InjectNth re-apply the per-thread injection identity the
	// recording run reported (Result.injected_thread/injected_thread_nth).
	// InjectThread -1 means no injection, and then InjectNth must be 0.
	InjectThread int    `json:"inject_thread"`
	InjectNth    uint64 `json:"inject_nth"`
}

// ApplyDefaults fills zero-valued fields with the CLI defaults.
func (r *ReplayRequest) ApplyDefaults() {
	if r.Scale == 0 {
		r.Scale = 1
	}
	if r.Threads == 0 {
		r.Threads = 4
	}
}

// Validate rejects out-of-domain parameters; every failure wraps
// ErrBadRequest.
func (r ReplayRequest) Validate() error {
	if err := validateRun(r.App, r.Scale, r.Threads); err != nil {
		return err
	}
	if r.InjectThread < -1 || r.InjectThread >= r.Threads {
		return fmt.Errorf("%w: inject_thread must be -1 or a thread id below %d, got %d",
			ErrBadRequest, r.Threads, r.InjectThread)
	}
	if r.InjectThread >= 0 && r.InjectNth == 0 {
		return fmt.Errorf("%w: inject_nth must be at least 1 when inject_thread is set", ErrBadRequest)
	}
	if r.InjectThread == -1 && r.InjectNth != 0 {
		return fmt.Errorf("%w: inject_nth requires a thread id in inject_thread", ErrBadRequest)
	}
	return nil
}

// ReplayResponse is the verdict of one replay session. Completed reports
// that the engine followed the log to the end of the program; a divergent or
// hung replay (a log inconsistent with the named run) is a verdict, not a
// transport error, and travels in Divergence.
type ReplayResponse struct {
	Schema       int        `json:"schema"`
	App          string     `json:"app"`
	Seed         uint64     `json:"seed"`
	Scale        int        `json:"scale"`
	Threads      int        `json:"threads"`
	InjectThread int        `json:"inject_thread"`
	InjectNth    uint64     `json:"inject_nth,omitempty"`
	LogEntries   int        `json:"log_entries"`
	LogBytes     int        `json:"log_bytes"`
	Completed    bool       `json:"completed"`
	Divergence   string     `json:"divergence,omitempty"`
	Result       sim.Result `json:"result"`
}

// RunReplay replays a decoded order log against the named run configuration
// under the log's epoch schedule. Cancelling ctx stops the engine mid-run.
func RunReplay(ctx context.Context, req ReplayRequest, log *record.Log) (*ReplayResponse, error) {
	req.ApplyDefaults()
	if err := req.Validate(); err != nil {
		return nil, err
	}
	epochs, err := log.Schedule(req.Threads)
	if err != nil {
		if errors.Is(err, record.ErrOrderViolation) {
			// Keep the typed verdict: the HTTP layer answers 422 /
			// order_violation, like the streaming ingest path does.
			return nil, err
		}
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	res, err := req.engine(sim.Config{ReplayEpochs: epochs, Cancel: ctx.Done()}).Run()
	if errors.Is(err, sim.ErrCanceled) && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	divergence, err := replayVerdict(res, err)
	if err != nil {
		return nil, err
	}
	return &ReplayResponse{
		Schema:       SchemaVersion,
		App:          req.App,
		Seed:         req.Seed,
		Scale:        req.Scale,
		Threads:      req.Threads,
		InjectThread: req.InjectThread,
		InjectNth:    req.InjectNth,
		LogEntries:   log.Len(),
		LogBytes:     log.SizeBytes(),
		Completed:    divergence == "",
		Divergence:   divergence,
		Result:       res,
	}, nil
}

// engine builds the replay of r's run: cfg supplies the schedule
// (ReplayEpochs or ReplayFeed), observers and cancellation, and r the seed,
// the program and the recorded injection identity. A replay runs without
// jitter: it follows the log, not the scheduler. r must be valid.
func (r ReplayRequest) engine(cfg sim.Config) *sim.Engine {
	app, _ := workload.ByName(r.App)
	cfg.Seed = r.Seed
	cfg.InjectThread, cfg.InjectThreadNth = r.InjectThread, r.InjectNth
	return sim.New(cfg, app.Build(r.Scale, r.Threads))
}

// replayVerdict splits a replay's outcome into a verdict and a failure. A
// replay that left the log — a divergence error, or a run that blocked
// before all epochs ran — is a verdict, reported as a non-empty divergence;
// any other error is returned as a failure.
func replayVerdict(res sim.Result, err error) (divergence string, _ error) {
	switch {
	case errors.Is(err, sim.ErrReplayDivergence):
		return err.Error(), nil
	case err != nil:
		return "", err
	case res.Hung:
		return "replayed run could not follow the log (blocked before all epochs ran)", nil
	}
	return "", nil
}

// encodeJSON renders a response body in the repository's canonical byte
// form — two-space-indented JSON with a trailing newline, the
// internal/experiment artifact convention — so identical sessions produce
// byte-identical bodies.
func encodeJSON(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("server: encoding response: %w", err)
	}
	return append(b, '\n'), nil
}
