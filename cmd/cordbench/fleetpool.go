package main

import (
	"fmt"
	"sync"
	"time"

	"cord/internal/server"
	"cord/internal/workload"
)

// This file is the coordinator's scheduler: one shared shard queue that every
// worker loop pulls from, ordered heaviest app first; requeue of a dead
// worker's in-flight shard at the queue head; and the bookkeeping behind GET
// /v1/campaign/progress (PROTOCOL.md §7). Everything here is placement policy —
// correctness never depends on it, because the checkpoint journal keyed by run
// identity is the merge point: however many times a shard is taken, requeued
// or re-sent, its cells land under the same keys with the same bytes.

// ewmaAlpha is the weight of the newest observation in the per-worker
// latency estimate the progress resource reports. The estimate is
// observability only: no scheduling decision reads it.
const ewmaAlpha = 0.5

// maxCoalesceFactor caps how many base shards one take may merge into a
// single request. The cap bounds the work lost if the worker then dies.
const maxCoalesceFactor = 4

// workerState is one worker's slice of the scheduler.
type workerState struct {
	url      string
	inflight int // 0 or 1: each worker loop runs one shard at a time
	done     int // shards completed
	// ewmaRunMs is this worker's per-injection-run latency, folded over its
	// completed shards; 0 until the first one.
	ewmaRunMs float64
	health    string // server.WorkerLive, WorkerSuspect or WorkerDead
}

// fleetPool is the shared scheduler state. All fields are guarded by mu; the
// cond wakes worker loops when work appears and the dispatcher when the
// campaign completes or aborts.
type fleetPool struct {
	mu   sync.Mutex
	cond *sync.Cond

	campaign  string
	fp        string
	shardRuns int
	// registryMode relaxes the all-workers-lost rule: instead of failing
	// immediately, the queue waits joinGrace for the registry to deliver a
	// replacement worker.
	registryMode bool
	joinGrace    time.Duration

	workers map[string]*workerState
	live    int
	// queue is the undispatched work, taken from the front: requeued shards
	// first, then the campaign cut heaviest app first. queuedRuns is its size
	// in injection runs.
	queue         []shardWork
	queuedRuns    int
	runsRemaining int
	inflight      int

	requeued int

	cellsTotal int
	doneKeys   map[string]bool

	graceTimer  *time.Timer
	failed      error
	interrupted bool
}

func newFleetPool(campaign, fp string, shardRuns int, registryMode bool, joinGrace time.Duration, cellsTotal int) *fleetPool {
	p := &fleetPool{
		campaign:     campaign,
		fp:           fp,
		shardRuns:    shardRuns,
		registryMode: registryMode,
		joinGrace:    joinGrace,
		workers:      make(map[string]*workerState),
		cellsTotal:   cellsTotal,
		doneKeys:     make(map[string]bool),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// addWorker registers (or revives) a worker and reports whether a worker
// loop should be started for it. A URL that is already live or suspect
// keeps its loop.
func (p *fleetPool) addWorker(url string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failed != nil || p.interrupted {
		return false
	}
	w := p.workers[url]
	if w != nil && w.health != server.WorkerDead {
		return false // already running
	}
	if w == nil {
		w = &workerState{url: url}
		p.workers[url] = w
	}
	// A revived worker's process is new, so its old latency is stale.
	w.ewmaRunMs = 0
	w.health = server.WorkerLive
	p.live++
	if p.graceTimer != nil {
		p.graceTimer.Stop()
		p.graceTimer = nil
	}
	p.cond.Broadcast()
	return true
}

// candidate reports whether a registry-listed URL is worth probing: unknown
// to the pool, or known dead (a restarted worker re-registering under its
// old URL). Anything live or suspect already has a loop.
func (p *fleetPool) candidate(url string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failed != nil || p.interrupted || p.runsRemaining == 0 {
		return false
	}
	w := p.workers[url]
	return w == nil || w.health == server.WorkerDead
}

// enqueue appends the campaign's shard cut to the queue, heaviest app first
// by its Table 1 access count (workload.HeaviestFirst). The order is
// stable, so each app's shards stay contiguous and in run order, which is
// what lets take coalesce them.
func (p *fleetPool) enqueue(shards []shardWork) {
	sorted := make([]shardWork, 0, len(shards))
	for _, i := range workload.HeaviestFirst(len(shards), func(i int) string { return shards[i].rng.App }) {
		sorted = append(sorted, shards[i])
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range sorted {
		p.queuedRuns += s.runs()
		p.runsRemaining += s.runs()
	}
	p.queue = append(p.queue, sorted...)
	p.cond.Broadcast()
}

// take blocks until the queue has a shard for the named worker, or until the
// campaign completes or aborts (ok=false, and the loop exits). It pops the
// head whole and coalesces the head's contiguous same-app, same-origin
// neighbours into one request of at most target runs — a guided
// self-scheduling bound that shrinks to one base shard as the queue drains,
// so early takes save round trips and late ones keep the tail balanced. A
// coalesced shard is one range like any other, so its content-derived id
// makes it as idempotent and journal-keyed as a base one.
func (p *fleetPool) take(url string) (shardWork, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	self := p.workers[url]
	for {
		if p.failed != nil || p.interrupted || p.runsRemaining == 0 || self.health == server.WorkerDead {
			return shardWork{}, false
		}
		if len(p.queue) > 0 {
			break
		}
		p.cond.Wait()
	}
	target := min(maxCoalesceFactor*p.shardRuns, p.queuedRuns/(2*p.live))
	s := p.queue[0]
	p.queue = p.queue[1:]
	for len(p.queue) > 0 {
		next := p.queue[0]
		if next.rng.App != s.rng.App || next.rng.Lo != s.rng.Hi ||
			s.runs()+next.runs() > target || next.origin != s.origin {
			break
		}
		s.rng.Hi = next.rng.Hi
		p.queue = p.queue[1:]
	}
	p.queuedRuns -= s.runs()
	self.inflight++
	p.inflight++
	return s, true
}

// completed retires one executed shard, folds its latency into the worker's
// estimate, and restores the worker to live (a suspect that delivers is
// healthy again).
func (p *fleetPool) completed(url string, s shardWork, elapsed time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w := p.workers[url]
	obs := float64(elapsed) / float64(time.Millisecond) / float64(s.runs())
	if w.ewmaRunMs == 0 {
		w.ewmaRunMs = obs
	} else {
		w.ewmaRunMs = ewmaAlpha*obs + (1-ewmaAlpha)*w.ewmaRunMs
	}
	w.health = server.WorkerLive
	w.done++
	w.inflight--
	p.inflight--
	p.runsRemaining -= s.runs()
	p.cond.Broadcast()
}

// markSuspect flags a worker whose current request needed a transient retry.
func (p *fleetPool) markSuspect(url string) {
	p.mu.Lock()
	if w := p.workers[url]; w != nil && w.health == server.WorkerLive {
		w.health = server.WorkerSuspect
	}
	p.mu.Unlock()
}

// workerDied removes a worker that exhausted its retry budget and puts its
// in-flight shard back at the queue head, so the next take anywhere runs it.
// With no live worker left, registry mode lets the queue wait for a joiner
// (failing after joinGrace), while static mode fails the campaign — nobody
// can ever join a static fleet.
func (p *fleetPool) workerDied(url string, s shardWork, cause error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w := p.workers[url]
	w.health = server.WorkerDead
	w.inflight--
	p.inflight--
	p.live--
	p.requeued++
	s.origin = "requeue"
	p.queue = append([]shardWork{s}, p.queue...)
	p.queuedRuns += s.runs()
	if p.live == 0 {
		if !p.registryMode {
			if p.failed == nil {
				p.failed = fmt.Errorf("all workers lost with %d shards outstanding; last: %w", len(p.queue), cause)
			}
		} else if p.graceTimer == nil && p.failed == nil && !p.interrupted {
			grace := p.joinGrace
			p.graceTimer = time.AfterFunc(grace, func() {
				p.mu.Lock()
				if p.live == 0 && p.failed == nil && !p.interrupted && p.runsRemaining > 0 {
					p.failed = fmt.Errorf("all workers lost and none joined within %v (%d shards outstanding); last: %w",
						grace, len(p.queue), cause)
				}
				p.cond.Broadcast()
				p.mu.Unlock()
			})
		}
	}
	p.cond.Broadcast()
}

// journaled records one merged cell key for progress accounting.
func (p *fleetPool) journaled(key string) {
	p.mu.Lock()
	p.doneKeys[key] = true
	p.mu.Unlock()
}

// seedJournaled pre-marks cells already in the journal (resume).
func (p *fleetPool) seedJournaled(keys []string) {
	p.mu.Lock()
	for _, k := range keys {
		p.doneKeys[k] = true
	}
	p.mu.Unlock()
}

func (p *fleetPool) fail(err error) {
	p.mu.Lock()
	if p.failed == nil {
		p.failed = err
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *fleetPool) interrupt() {
	p.mu.Lock()
	p.interrupted = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// waitDone blocks until the campaign is complete, failed, or interrupted
// with every in-flight shard drained, and returns the terminal error (nil on
// success; the caller maps interrupted to experiment.ErrInterrupted).
func (p *fleetPool) waitDone() (failed error, interrupted bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		terminal := p.failed != nil || p.interrupted || p.runsRemaining == 0
		if terminal && p.inflight == 0 {
			if p.graceTimer != nil {
				p.graceTimer.Stop()
				p.graceTimer = nil
			}
			return p.failed, p.interrupted
		}
		p.cond.Wait()
	}
}

// snapshot renders the pool as the §7 progress resource.
func (p *fleetPool) snapshot() server.CampaignProgress {
	p.mu.Lock()
	defer p.mu.Unlock()
	prog := server.CampaignProgress{
		Campaign:       p.campaign,
		Fingerprint:    p.fp,
		CellsDone:      len(p.doneKeys),
		CellsTotal:     p.cellsTotal,
		ShardsRequeued: p.requeued,
	}
	for _, w := range p.workers {
		prog.Workers = append(prog.Workers, server.ProgressWorker{
			URL:            w.url,
			Health:         w.health,
			ShardsDone:     w.done,
			ShardsInFlight: w.inflight,
			LatencyEwmaMs:  w.ewmaRunMs,
		})
	}
	return prog
}
