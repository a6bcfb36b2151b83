package server

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"regexp"

	"cord/internal/experiment"
	"cord/internal/sim"
)

// This file is the worker half of the distributed campaign protocol
// (PROTOCOL.md §6): POST /v1/campaign/plan validates a campaign
// configuration and returns its fingerprint; POST /v1/campaign/shard
// executes one run-shard on the session pool and returns the outcome cells
// keyed by run identity. Everything response-shaped here is normatively
// specified in §6 and pinned by the doc-conformance test — change the spec
// first.

// MaxInjections bounds a campaign's per-application injection-run count on
// the wire. The domain, not a shard, allocates per-app target arrays, so an
// absurd count must be rejected before it sizes an allocation.
const MaxInjections = 1 << 20

// identRe is the shared syntax of campaign ids and shard ids: 1–64
// characters of [A-Za-z0-9._-]. Ids are labels for logs, journals, and the
// shard registry — never filesystem paths or shell words — but keeping them
// printable and short makes every downstream surface safe to embed them.
var identRe = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// CampaignPlanRequest is the body of POST /v1/campaign/plan.
type CampaignPlanRequest struct {
	// Campaign is the client-chosen campaign id (1–64 chars of
	// [A-Za-z0-9._-]).
	Campaign string `json:"campaign"`
	// Options is the result-determining campaign configuration. Zero or
	// omitted fields take the same defaults the CLIs apply.
	Options experiment.CampaignMeta `json:"options"`
}

// CampaignPlanResponse answers a plan probe: the worker's own fingerprint
// of the normalized configuration plus the campaign's run geometry. A
// coordinator probes every worker before dispatching and aborts on any
// fingerprint disagreement — that is version or configuration skew, and
// shards executed under it would merge silently-wrong cells.
type CampaignPlanResponse struct {
	Schema      int      `json:"schema"`
	Campaign    string   `json:"campaign"`
	Fingerprint string   `json:"fingerprint"`
	Apps        []string `json:"apps"`
	RunsPerApp  int      `json:"runs_per_app"`
	TotalRuns   int      `json:"total_runs"`
}

// CampaignShardRequest is the body of POST /v1/campaign/shard: one unit of
// distributed campaign work.
type CampaignShardRequest struct {
	Campaign string `json:"campaign"`
	// ShardID identifies this shard within the campaign (1–64 chars of
	// [A-Za-z0-9._-]). Re-sending a shard id with identical content is
	// idempotent; re-using it with different content is a 409 shard_conflict.
	ShardID string `json:"shard_id"`
	// Fingerprint is the coordinator's fingerprint of Options. The worker
	// recomputes it and rejects any disagreement with 422.
	Fingerprint string                  `json:"fingerprint"`
	Options     experiment.CampaignMeta `json:"options"`
	// Range is the half-open [lo, hi) injection-run range of one
	// application to execute.
	Range experiment.ShardRange `json:"range"`
	// Origin records why the coordinator routed this shard here: "" for
	// first dispatch, "requeue" when it was rescued from a dead worker
	// (PROTOCOL.md §7). Origin is observability only — it feeds the
	// worker's fleet metrics and is deliberately excluded from the shard
	// content hash, so a requeued re-send of a shard is still idempotent,
	// not a 409.
	Origin string `json:"origin,omitempty"`
}

// CampaignShardResponse carries the shard's outcome cells in canonical
// order: the application's count cell, then its injection cells by run
// index. Cells are exactly the bytes an equivalent local campaign journals,
// so a re-sent shard returns a byte-identical response.
type CampaignShardResponse struct {
	Schema      int               `json:"schema"`
	Campaign    string            `json:"campaign"`
	ShardID     string            `json:"shard_id"`
	Fingerprint string            `json:"fingerprint"`
	Runs        int               `json:"runs"`
	Cells       []experiment.Cell `json:"cells"`
}

// campaignOptions validates the wire metadata and reconstructs campaign
// Options within the service's request-domain bounds. Every failure wraps
// ErrBadRequest.
func campaignOptions(m experiment.CampaignMeta) (experiment.Options, error) {
	o, err := experiment.OptionsFromMeta(m)
	if err != nil {
		return experiment.Options{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	norm := o.Meta()
	if err := validateSize(norm.Scale, norm.Threads); err != nil {
		return experiment.Options{}, err
	}
	if norm.Injections > MaxInjections {
		return experiment.Options{}, fmt.Errorf("%w: injections must be in [1, %d], got %d", ErrBadRequest, MaxInjections, norm.Injections)
	}
	return o, nil
}

func (s *Server) handleCampaignPlan(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req CampaignPlanRequest
	if err := decodeJSONBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if !identRe.MatchString(req.Campaign) {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("%w: campaign must match %s", ErrBadRequest, identRe))
		return
	}
	opts, err := campaignOptions(req.Options)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Planning touches no simulation — answer directly, bypassing the pool,
	// like /healthz: a coordinator must be able to probe a busy worker.
	meta := opts.Meta()
	writeJSON(w, http.StatusOK, &CampaignPlanResponse{
		Schema:      SchemaVersion,
		Campaign:    req.Campaign,
		Fingerprint: opts.Fingerprint(),
		Apps:        meta.Apps,
		RunsPerApp:  meta.Injections,
		TotalRuns:   meta.Injections * len(meta.Apps),
	})
}

// validate decides everything about a shard request that needs no
// execution and no worker state: ids, origin, configuration, fingerprint
// and range. It returns the campaign Options, or an error that wraps
// ErrBadRequest (400) or is a fingerprintMismatch (422).
func (req *CampaignShardRequest) validate() (experiment.Options, error) {
	if !identRe.MatchString(req.Campaign) || !identRe.MatchString(req.ShardID) {
		return experiment.Options{}, fmt.Errorf("%w: campaign and shard_id must match %s", ErrBadRequest, identRe)
	}
	if req.Origin != "" && req.Origin != "requeue" {
		return experiment.Options{}, fmt.Errorf("%w: origin must be \"\" or \"requeue\", got %q", ErrBadRequest, req.Origin)
	}
	opts, err := campaignOptions(req.Options)
	if err != nil {
		return experiment.Options{}, err
	}
	if fp := opts.Fingerprint(); req.Fingerprint != fp {
		return experiment.Options{}, fingerprintMismatch{got: req.Fingerprint, want: fp}
	}
	// DetectKeys fails exactly when the range is outside the campaign.
	if _, err := opts.DetectKeys(req.Range); err != nil {
		return experiment.Options{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return opts, nil
}

// fingerprintMismatch refuses a shard whose declared fingerprint is not the
// worker's own: coordinator and worker disagree on the configuration.
type fingerprintMismatch struct{ got, want string }

func (e fingerprintMismatch) Error() string {
	return fmt.Sprintf("request fingerprint %q does not match this worker's %q: coordinator and worker disagree on the campaign configuration",
		e.got, e.want)
}

func (s *Server) handleCampaignShard(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req CampaignShardRequest
	if err := decodeJSONBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	opts, err := req.validate()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if prev, ok := s.registerShard(req); !ok {
		writeErrorCode(w, http.StatusConflict, codeShardConflict,
			fmt.Errorf("shard %s/%s was already submitted with different content (hash %016x); shard ids are immutable once used",
				req.Campaign, req.ShardID, prev))
		return
	}
	if req.Origin == "requeue" {
		s.m.bumpFleet(func(c *FleetCounters) { c.ShardsRequeued++ })
	}

	s.dispatch(w, r, func(ctx context.Context) (any, error) {
		// Serial within the shard: one session occupies one pool worker, so
		// fleet-level parallelism (many in-flight shards) composes with the
		// pool instead of oversubscribing it.
		runOpts := opts
		runOpts.Procs = 1
		runOpts.Cancel = ctx.Done()
		cells, err := experiment.ExecuteDetectShard(runOpts, req.Range)
		if err != nil {
			if errors.Is(err, sim.ErrCanceled) && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, err
		}
		// Worker-kill chaos fires here — after the shard's cells exist but
		// before any response byte is written — so the coordinator sees the
		// dropped connection a mid-request kill -9 produces and must recover
		// through retry or requeue.
		s.cfg.Chaos.ShardCompleted()
		return &CampaignShardResponse{
			Schema:      SchemaVersion,
			Campaign:    req.Campaign,
			ShardID:     req.ShardID,
			Fingerprint: req.Fingerprint,
			Runs:        req.Range.Hi - req.Range.Lo,
			Cells:       cells,
		}, nil
	})
}

// maxShardRegistry bounds the conflict-detection registry. Beyond it each
// new entry evicts an arbitrary one (Go map order) — conflict detection is
// best-effort, never a correctness mechanism: cells are deterministic, so
// even an undetected id re-use returns correct bytes for its content.
const maxShardRegistry = 4096

// shardKey scopes shard ids per campaign.
type shardKey struct{ campaign, shard string }

// registerShard records the shard's content hash under its identity. It
// reports false — with the previously registered hash — when the id was
// already used with different content.
func (s *Server) registerShard(req CampaignShardRequest) (prev uint64, ok bool) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s:%d:%d", req.Fingerprint, req.Range.App, req.Range.Lo, req.Range.Hi)
	sum := h.Sum64()

	s.shardMu.Lock()
	defer s.shardMu.Unlock()
	if s.shards == nil {
		s.shards = make(map[shardKey]uint64)
	}
	key := shardKey{req.Campaign, req.ShardID}
	if prev, seen := s.shards[key]; seen {
		return prev, prev == sum
	}
	if len(s.shards) >= maxShardRegistry {
		for k := range s.shards { // forget an arbitrary entry
			delete(s.shards, k)
			break
		}
	}
	s.shards[key] = sum
	return sum, true
}
