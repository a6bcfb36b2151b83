package server

import (
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"time"
)

// This file is the fleet-membership half of the self-healing campaign story
// (PROTOCOL.md §7): every cordd serves a worker registry — POST
// /v1/fleet/register is both initial registration and heartbeat, GET
// /v1/fleet/workers is discovery — so any instance can serve as the
// registry and any other can announce itself to it with `cordd -register`.
// Expiry is TTL-based and lazy: entries whose deadline has passed are pruned
// on the next register or listing, never by a background goroutine, which
// keeps the registry deterministic under an injected clock (tests and the
// doc-conformance suite freeze Server.now). The coordinator-side campaign
// progress resource (GET /v1/campaign/progress) is also specified here so
// cordbench, cordload and the conformance test share one wire shape.

const (
	// defaultFleetTTLSeconds is the registration lifetime applied when a
	// register request does not choose one. Workers heartbeat at a fraction
	// of their TTL (cordd uses TTL/3), so the default tolerates two lost
	// heartbeats before the worker expires.
	defaultFleetTTLSeconds = 15
	// maxFleetTTLSeconds caps client-chosen TTLs: a worker that asks for an
	// hour would otherwise pin a dead entry in every listing for that hour.
	maxFleetTTLSeconds = 300
	// maxFleetRegistry bounds the registry like maxShardRegistry bounds the
	// shard-conflict map. Beyond it the entry closest to expiry is evicted —
	// membership is best-effort liveness tracking, never a correctness
	// mechanism: a coordinator can always be handed workers statically.
	maxFleetRegistry = 4096
)

// FleetRegisterRequest is the body of POST /v1/fleet/register. The same
// request is registration and heartbeat: re-registering an already-known URL
// refreshes its deadline (and updates its worker count) instead of erroring,
// so a worker's announce loop is one idempotent POST on a timer.
type FleetRegisterRequest struct {
	// URL is the worker's advertised base URL — the address a coordinator
	// will dial, so it must be reachable from the coordinator, not merely a
	// bind address. Absolute http or https; it is also the registry key.
	URL string `json:"url"`
	// Workers is the worker's session-pool size, advertised for operators
	// and coordinators; this tree's coordinator does not read it.
	// Optional; 0 means unknown.
	Workers int `json:"workers,omitempty"`
	// TTLSeconds is how long this registration lives without a heartbeat,
	// in [1, 300]. Optional; 0 selects the default (15).
	TTLSeconds int `json:"ttl_seconds,omitempty"`
}

// FleetRegisterResponse acknowledges one registration or heartbeat.
type FleetRegisterResponse struct {
	Schema int    `json:"schema"`
	URL    string `json:"url"`
	// TTLSeconds echoes the effective TTL (the default if the request chose
	// none), so workers can derive their heartbeat interval from the answer.
	TTLSeconds int `json:"ttl_seconds"`
	// LiveWorkers counts registrations alive after this one, it included.
	LiveWorkers int `json:"live_workers"`
}

// FleetWorker is one live registration in a GET /v1/fleet/workers listing.
type FleetWorker struct {
	URL     string `json:"url"`
	Workers int    `json:"workers"`
	// ExpiresInSeconds is the whole seconds left before this registration
	// expires without a heartbeat (floor, so a freshly-registered worker
	// reports exactly its TTL).
	ExpiresInSeconds int `json:"expires_in_seconds"`
}

// FleetWorkersResponse is the GET /v1/fleet/workers body: the live workers
// sorted by URL, expired entries already pruned.
type FleetWorkersResponse struct {
	Schema  int           `json:"schema"`
	Workers []FleetWorker `json:"workers"`
}

// fleetEntry is one live registration in the registry map (keyed by URL).
type fleetEntry struct {
	workers  int
	deadline time.Time
}

// pruneFleetLocked drops expired registrations and returns how many fell.
// Callers hold fleetMu.
func (s *Server) pruneFleetLocked(now time.Time) int {
	expired := 0
	for u, e := range s.fleet {
		if !e.deadline.After(now) {
			delete(s.fleet, u)
			expired++
		}
	}
	return expired
}

// fleetLive reports the current live registration count (pruning first).
func (s *Server) fleetLive() int {
	now := s.now()
	s.fleetMu.Lock()
	expired := s.pruneFleetLocked(now)
	n := len(s.fleet)
	s.fleetMu.Unlock()
	if expired > 0 {
		s.m.bumpFleet(func(c *FleetCounters) { c.WorkersExpired += uint64(expired) })
	}
	return n
}

func (s *Server) handleFleetRegister(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req FleetRegisterRequest
	if err := decodeJSONBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	u, err := url.Parse(req.URL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("%w: url must be an absolute http(s) URL, got %q", ErrBadRequest, req.URL))
		return
	}
	if req.TTLSeconds < 0 || req.TTLSeconds > maxFleetTTLSeconds {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("%w: ttl_seconds must be in [1, %d], got %d", ErrBadRequest, maxFleetTTLSeconds, req.TTLSeconds))
		return
	}
	if req.Workers < 0 {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("%w: workers must be non-negative, got %d", ErrBadRequest, req.Workers))
		return
	}
	ttl := req.TTLSeconds
	if ttl == 0 {
		ttl = defaultFleetTTLSeconds
	}

	now := s.now()
	s.fleetMu.Lock()
	if s.fleet == nil {
		s.fleet = make(map[string]*fleetEntry)
	}
	expired := s.pruneFleetLocked(now)
	_, heartbeat := s.fleet[req.URL]
	if !heartbeat && len(s.fleet) >= maxFleetRegistry {
		// Evict the registration closest to expiry: it is the one a prune
		// would have dropped soonest anyway.
		var victim string
		var soonest time.Time
		for u, e := range s.fleet {
			if victim == "" || e.deadline.Before(soonest) {
				victim, soonest = u, e.deadline
			}
		}
		delete(s.fleet, victim)
		expired++
	}
	s.fleet[req.URL] = &fleetEntry{workers: req.Workers, deadline: now.Add(time.Duration(ttl) * time.Second)}
	live := len(s.fleet)
	s.fleetMu.Unlock()

	s.m.bumpFleet(func(c *FleetCounters) {
		c.WorkersExpired += uint64(expired)
		if heartbeat {
			c.HeartbeatsReceived++
		} else {
			c.WorkersRegistered++
		}
	})
	writeJSON(w, http.StatusOK, &FleetRegisterResponse{
		Schema:      SchemaVersion,
		URL:         req.URL,
		TTLSeconds:  ttl,
		LiveWorkers: live,
	})
}

func (s *Server) handleFleetWorkers(w http.ResponseWriter, r *http.Request) {
	now := s.now()
	s.fleetMu.Lock()
	expired := s.pruneFleetLocked(now)
	workers := make([]FleetWorker, 0, len(s.fleet))
	for u, e := range s.fleet {
		workers = append(workers, FleetWorker{
			URL:              u,
			Workers:          e.workers,
			ExpiresInSeconds: int(e.deadline.Sub(now) / time.Second),
		})
	}
	s.fleetMu.Unlock()
	if expired > 0 {
		s.m.bumpFleet(func(c *FleetCounters) { c.WorkersExpired += uint64(expired) })
	}
	sort.Slice(workers, func(i, j int) bool { return workers[i].URL < workers[j].URL })
	writeJSON(w, http.StatusOK, &FleetWorkersResponse{Schema: SchemaVersion, Workers: workers})
}

// Worker health classifications in CampaignProgress. A worker is live while
// its requests succeed, suspect after a transient failure (observability
// only: it drives no scheduling), and dead once the coordinator has given up
// on it and requeued its in-flight shard.
const (
	WorkerLive    = "live"
	WorkerSuspect = "suspect"
	WorkerDead    = "dead"
)

// ProgressWorker is one worker's slice of a CampaignProgress report.
type ProgressWorker struct {
	URL    string `json:"url"`
	Health string `json:"health"` // "live", "suspect" or "dead"
	// ShardsDone / ShardsInFlight count the shards this worker completed
	// and the one it is executing. Queued shards belong to no worker until
	// one takes them from the coordinator's shared queue.
	ShardsDone     int `json:"shards_done"`
	ShardsInFlight int `json:"shards_in_flight"`
	// LatencyEwmaMs is the coordinator's moving estimate of this worker's
	// per-run latency, folded over its completed shards; 0 until the first.
	// Observability only: no scheduling decision reads it.
	LatencyEwmaMs float64 `json:"latency_ewma_ms"`
}

// CampaignProgress is the GET /v1/campaign/progress body: one coordinator's
// view of a running (or finished) distributed campaign. It is served by
// cordbench, not cordd — the coordinator is the only party that knows
// placement — but the shape lives here so every consumer (cordload -progress,
// the smoke scripts, the §7 conformance example) shares it.
type CampaignProgress struct {
	Schema      int    `json:"schema"`
	Campaign    string `json:"campaign"`
	Fingerprint string `json:"fingerprint"`
	// CellsDone / CellsTotal measure campaign completion in journal cells,
	// the exactly-once unit of merge.
	CellsDone  int `json:"cells_done"`
	CellsTotal int `json:"cells_total"`
	// ShardsRequeued counts recovery actions so far: in-flight shards
	// rescued from workers declared dead.
	ShardsRequeued int `json:"shards_requeued"`
	// Workers lists per-worker assignment and health, sorted by URL.
	Workers []ProgressWorker `json:"workers"`
}

// ProgressHandler adapts a coordinator's progress snapshot function into the
// GET /v1/campaign/progress endpoint, stamping the schema version and
// sorting workers so equal states encode to equal bytes.
func ProgressHandler(snapshot func() CampaignProgress) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeErrorCode(w, http.StatusMethodNotAllowed, codeBadRequest,
				fmt.Errorf("%w: %s is not allowed on the progress resource", ErrBadRequest, r.Method))
			return
		}
		p := snapshot()
		p.Schema = SchemaVersion
		sort.Slice(p.Workers, func(i, j int) bool { return p.Workers[i].URL < p.Workers[j].URL })
		writeJSON(w, http.StatusOK, p)
	})
}
