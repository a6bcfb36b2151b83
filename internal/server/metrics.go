package server

import (
	"sync"
	"time"
)

// latencyBucketsMs are the fixed upper bounds (milliseconds) of the
// per-endpoint latency histograms. The last bucket of Histogram.Counts is
// the overflow bucket (> 60 s). Fixed bounds keep /metrics bodies
// structurally identical across servers, so dashboards and load-test
// tooling can diff them without negotiating shapes.
var latencyBucketsMs = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000}

// Histogram is a cumulative latency histogram: Counts[i] holds observations
// with latency <= LeMs[i]; the final element holds the overflow.
type Histogram struct {
	LeMs   []float64 `json:"le_ms"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	SumMs  float64   `json:"sum_ms"`
}

// SessionCounters are the cumulative session-lifecycle counters. Every
// accepted session ends in exactly one of completed, failed, canceled or
// timed-out; rejected requests were never accepted.
type SessionCounters struct {
	// Accepted sessions entered the queue.
	Accepted uint64 `json:"accepted"`
	// Started sessions were picked up by a worker.
	Started uint64 `json:"started"`
	// Completed sessions produced a 2xx response body.
	Completed uint64 `json:"completed"`
	// Failed sessions ended in a request or internal error.
	Failed uint64 `json:"failed"`
	// Canceled sessions were stopped because their client disconnected.
	Canceled uint64 `json:"canceled"`
	// TimedOut sessions exceeded the per-session timeout.
	TimedOut uint64 `json:"timed_out"`
	// RejectedQueueFull requests got 429: the session queue was full.
	RejectedQueueFull uint64 `json:"rejected_queue_full"`
	// RejectedDraining requests got 503: the server was shutting down.
	RejectedDraining uint64 `json:"rejected_draining"`
}

// StreamCounters are the cumulative /v1/stream session counters. Every
// started stream ends in exactly one of completed, failed, canceled,
// timed-out, idle-timeout or quota-exceeded; rejected requests never
// started. The byte/frame totals count what the decoder actually ingested,
// including partial streams that later failed.
type StreamCounters struct {
	// Started streams were admitted (drain check and slot both passed).
	Started uint64 `json:"started"`
	// Completed streams produced a 2xx summary.
	Completed uint64 `json:"completed"`
	// Failed streams ended in a format, order or parameter error.
	Failed uint64 `json:"failed"`
	// Canceled streams lost their client mid-session.
	Canceled uint64 `json:"canceled"`
	// TimedOut streams exceeded the session timeout during verification.
	TimedOut uint64 `json:"timed_out"`
	// IdleTimeout streams were evicted for not delivering bytes in time.
	IdleTimeout uint64 `json:"idle_timeout"`
	// QuotaExceeded streams hit their per-session byte or frame quota.
	QuotaExceeded uint64 `json:"quota_exceeded"`
	// RejectedLimit requests got 429: every stream slot was busy.
	RejectedLimit uint64 `json:"rejected_limit"`
	// RejectedDraining requests got 503: the server was shutting down.
	RejectedDraining uint64 `json:"rejected_draining"`
	// BytesIngested / FramesIngested total the decoded stream volume.
	BytesIngested  uint64 `json:"bytes_ingested"`
	FramesIngested uint64 `json:"frames_ingested"`
	// OnlineSessions counts detect=online sessions admitted (a subset of
	// Started); the remaining Online* totals cover only those sessions.
	OnlineSessions uint64 `json:"online_sessions"`
	// OnlineRaces totals the races the online detectors reported.
	OnlineRaces uint64 `json:"online_races"`
	// OnlineEpochsTotal / OnlineEpochsObserved total the epochs online
	// replays advanced through and the subset replayed with detection on —
	// their ratio is the fleet-wide effective duty-cycle coverage.
	OnlineEpochsTotal    uint64 `json:"online_epochs_total"`
	OnlineEpochsObserved uint64 `json:"online_epochs_observed"`
	// OnlineDivergences counts online sessions whose replay could not follow
	// the streamed log (a 200 verdict, not a failure).
	OnlineDivergences uint64 `json:"online_divergences"`
}

// FleetCounters are the cumulative fleet-membership and shard-recovery
// counters. The registry counters move on any cordd workers register with;
// the shard counter moves on workers, counting admitted shards whose
// requests declare the requeue origin (PROTOCOL.md §7). The block is present — zeroed —
// on every server, keeping /metrics bodies structurally identical.
type FleetCounters struct {
	// LiveWorkers is a gauge: registrations currently alive (not expired).
	LiveWorkers int `json:"live_workers"`
	// WorkersRegistered counts registrations of previously-unknown URLs.
	WorkersRegistered uint64 `json:"workers_registered"`
	// HeartbeatsReceived counts re-registrations of already-known URLs.
	HeartbeatsReceived uint64 `json:"heartbeats_received"`
	// WorkersExpired counts registrations pruned after their TTL lapsed
	// (including best-effort evictions of a full registry).
	WorkersExpired uint64 `json:"workers_expired"`
	// ShardsRequeued counts admitted shards that arrived with origin
	// "requeue".
	ShardsRequeued uint64 `json:"shards_requeued"`
}

// Metrics is the GET /metrics body: a schema-versioned snapshot of the
// cumulative counters, following the internal/experiment JSON conventions
// (fixed field order; map keys sort, so equal states encode to equal bytes).
type Metrics struct {
	Schema        int                  `json:"schema"`
	UptimeSeconds float64              `json:"uptime_seconds"`
	Workers       int                  `json:"workers"`
	QueueDepth    int                  `json:"queue_depth"`
	QueueCapacity int                  `json:"queue_capacity"`
	Sessions      SessionCounters      `json:"sessions"`
	Streams       StreamCounters       `json:"streams"`
	Fleet         FleetCounters        `json:"fleet"`
	Endpoints     map[string]Histogram `json:"endpoints"`
}

// metrics is the live, mutex-guarded store behind Metrics snapshots.
type metrics struct {
	mu        sync.Mutex
	sessions  SessionCounters
	streams   StreamCounters
	fleet     FleetCounters
	endpoints map[string]*hist
}

type hist struct {
	counts [numBuckets]uint64
	count  uint64
	sumMs  float64
}

// numBuckets is len(latencyBucketsMs)+1 (the overflow bucket); a named constant
// because array lengths must be constant expressions.
const numBuckets = 16

func newMetrics() *metrics {
	return &metrics{endpoints: make(map[string]*hist)}
}

// bump applies fn to the counter set under the lock.
func (m *metrics) bump(fn func(*SessionCounters)) {
	m.mu.Lock()
	fn(&m.sessions)
	m.mu.Unlock()
}

// bumpStream applies fn to the stream counter set under the lock.
func (m *metrics) bumpStream(fn func(*StreamCounters)) {
	m.mu.Lock()
	fn(&m.streams)
	m.mu.Unlock()
}

// bumpFleet applies fn to the fleet counter set under the lock.
func (m *metrics) bumpFleet(fn func(*FleetCounters)) {
	m.mu.Lock()
	fn(&m.fleet)
	m.mu.Unlock()
}

// observe records one request's handler latency for an endpoint.
func (m *metrics) observe(endpoint string, d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for i < len(latencyBucketsMs) && ms > latencyBucketsMs[i] {
		i++
	}
	m.mu.Lock()
	h := m.endpoints[endpoint]
	if h == nil {
		h = &hist{}
		m.endpoints[endpoint] = h
	}
	h.counts[i]++
	h.count++
	h.sumMs += ms
	m.mu.Unlock()
}

// p50Ms estimates an endpoint's median latency from its histogram: the upper
// bound of the bucket holding the median observation (the overflow bucket
// reports the largest finite bound). ok is false with no observations yet.
func (m *metrics) p50Ms(endpoint string) (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.endpoints[endpoint]
	if h == nil || h.count == 0 {
		return 0, false
	}
	half := (h.count + 1) / 2
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= half {
			if i < len(latencyBucketsMs) {
				return latencyBucketsMs[i], true
			}
			return latencyBucketsMs[len(latencyBucketsMs)-1], true
		}
	}
	return 0, false
}

// snapshot renders the current counters as a Metrics value.
func (m *metrics) snapshot(uptime time.Duration, workers, queueDepth, queueCap int) Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := Metrics{
		Schema:        SchemaVersion,
		UptimeSeconds: uptime.Seconds(),
		Workers:       workers,
		QueueDepth:    queueDepth,
		QueueCapacity: queueCap,
		Sessions:      m.sessions,
		Streams:       m.streams,
		Fleet:         m.fleet,
		Endpoints:     make(map[string]Histogram, len(m.endpoints)),
	}
	for ep, h := range m.endpoints {
		counts := make([]uint64, numBuckets)
		copy(counts, h.counts[:])
		out.Endpoints[ep] = Histogram{
			LeMs:   latencyBucketsMs,
			Counts: counts,
			Count:  h.count,
			SumMs:  h.sumMs,
		}
	}
	return out
}
