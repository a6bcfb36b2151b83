package main

import (
	"errors"
	"strings"
	"testing"
	"time"

	"cord/internal/experiment"
	"cord/internal/server"
)

// shard builds one shard of app's runs [lo, hi).
func shard(app string, lo, hi int) shardWork {
	return shardWork{rng: experiment.ShardRange{App: app, Lo: lo, Hi: hi}}
}

// testPool is a pool over the named workers, with shards enqueued.
func testPool(t *testing.T, shardRuns int, registryMode bool, workers []string, shards []shardWork) *fleetPool {
	t.Helper()
	p := newFleetPool("bench-f00", "f00", shardRuns, registryMode, time.Minute, 0)
	for _, url := range workers {
		if !p.addWorker(url) {
			t.Fatalf("addWorker(%s) started no loop", url)
		}
	}
	p.enqueue(shards)
	return p
}

// mustTake takes one shard for url and fails the test if the pool says the
// campaign is over.
func mustTake(t *testing.T, p *fleetPool, url string) shardWork {
	t.Helper()
	s, ok := p.take(url)
	if !ok {
		t.Fatalf("take(%s) reported the campaign over", url)
	}
	return s
}

// drain runs one worker's loop serially until the campaign completes and
// returns the ids it took.
func drain(t *testing.T, p *fleetPool, url string) []string {
	t.Helper()
	var ids []string
	for {
		s, ok := p.take(url)
		if !ok {
			return ids
		}
		ids = append(ids, s.id())
		p.completed(url, s, time.Millisecond)
	}
}

// TestFleetPoolTakesHeaviestAppFirst: the queue is in Table 1 access order,
// heaviest first, whatever order the campaign lists its apps in, and each
// app's shards come out contiguous and in run order.
func TestFleetPoolTakesHeaviestAppFirst(t *testing.T) {
	meta := experiment.CampaignMeta{Apps: []string{"fft", "lu", "water-n2", "water-sp"}, Injections: 2}
	p := testPool(t, 1, false, []string{"http://a"}, buildShards(meta, 1))
	got := strings.Join(drain(t, p, "http://a"), " ")
	// One worker: each take coalesces up to queuedRuns/2 runs (4, 3, 2, 1),
	// but never past its app's last shard.
	want := "water-n2.0.2 fft.0.2 lu.0.2 water-sp.0.1 water-sp.1.2"
	if got != want {
		t.Fatalf("takes = %s, want %s", got, want)
	}
}

// TestFleetPoolCoalescing: a take merges the head's contiguous same-app
// neighbours only, up to min(maxCoalesceFactor*shardRuns,
// queuedRuns/(2*live)), so the merged size shrinks to one base shard as the
// queue drains.
func TestFleetPoolCoalescing(t *testing.T) {
	shards := []shardWork{
		shard("fft", 0, 1), shard("fft", 1, 2),
		// gap: fft run 2 is not queued
		shard("fft", 3, 4), shard("fft", 4, 5),
	}
	for lo := 0; lo < 8; lo++ {
		shards = append(shards, shard("lu", lo, lo+1))
	}
	p := testPool(t, 1, false, []string{"http://a"}, shards)
	got := strings.Join(drain(t, p, "http://a"), " ")
	want := "fft.0.2 fft.3.5 lu.0.4 lu.4.6 lu.6.7 lu.7.8"
	if got != want {
		t.Fatalf("takes = %s, want %s", got, want)
	}

	// A long single-app queue: sizes start at the 4-shard cap and never grow.
	var long []shardWork
	for lo := 0; lo < 40; lo++ {
		long = append(long, shard("fft", lo, lo+1))
	}
	p = testPool(t, 1, false, []string{"http://a"}, long)
	var sizes []int
	next := 0
	for {
		s, ok := p.take("http://a")
		if !ok {
			break
		}
		if s.rng.Lo != next {
			t.Fatalf("take %s after run %d: not the contiguous next range", s.id(), next)
		}
		next = s.rng.Hi
		sizes = append(sizes, s.runs())
		p.completed("http://a", s, time.Millisecond)
	}
	if next != 40 {
		t.Fatalf("takes covered runs [0, %d), want [0, 40)", next)
	}
	if sizes[0] != maxCoalesceFactor || sizes[len(sizes)-1] != 1 {
		t.Fatalf("take sizes %v: want %d first and 1 last", sizes, maxCoalesceFactor)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] > sizes[i-1] {
			t.Fatalf("take sizes %v grow at %d", sizes, i)
		}
	}
}

// TestFleetPoolDeadWorkerShardIsNextTake: a dead worker's in-flight shard
// goes back to the queue head as origin "requeue", and the next take returns
// it alone — even though the shard behind it is its contiguous neighbour and
// the coalescing bound would allow the merge.
func TestFleetPoolDeadWorkerShardIsNextTake(t *testing.T) {
	var shards []shardWork
	for lo := 0; lo < 8; lo++ {
		shards = append(shards, shard("fft", lo, lo+1))
	}
	p := testPool(t, 1, false, []string{"http://a", "http://b"}, shards)
	// Two live workers, eight queued runs: the bound is 8/(2*2) = 2.
	lost := mustTake(t, p, "http://a")
	if lost.id() != "fft.0.2" {
		t.Fatalf("first take = %s, want fft.0.2", lost.id())
	}
	p.workerDied("http://a", lost, errors.New("gone"))
	// One live worker, eight queued runs again: the bound is now 4, and
	// fft.2.3 continues the requeued range.
	s := mustTake(t, p, "http://b")
	if s.id() != "fft.0.2" || s.origin != "requeue" {
		t.Fatalf("take after death = %s origin %q, want fft.0.2 origin requeue", s.id(), s.origin)
	}
	p.completed("http://b", s, time.Millisecond)
	if s := mustTake(t, p, "http://b"); s.id() != "fft.2.5" || s.origin != "" {
		t.Fatalf("take after the requeue = %s origin %q, want fft.2.5 origin \"\"", s.id(), s.origin)
	}
	if _, ok := p.take("http://a"); ok {
		t.Fatal("a dead worker's loop was handed work")
	}
	if got := p.snapshot().ShardsRequeued; got != 1 {
		t.Fatalf("shards_requeued = %d, want 1", got)
	}
}

// TestFleetPoolStaticFleetLossFails: losing the last worker of a static fleet
// fails the campaign at once — nobody can join it.
func TestFleetPoolStaticFleetLossFails(t *testing.T) {
	p := testPool(t, 1, false, []string{"http://a"}, []shardWork{shard("fft", 0, 1), shard("fft", 1, 2)})
	s := mustTake(t, p, "http://a")
	p.workerDied("http://a", s, errors.New("connection refused"))
	failed, interrupted := p.waitDone()
	if failed == nil || !strings.Contains(failed.Error(), "all workers lost with 2 shards outstanding") || interrupted {
		t.Fatalf("waitDone = %v, %v; want the all-workers-lost failure", failed, interrupted)
	}
}

// TestFleetPoolRegistryWaitsForJoiner: losing the last worker of a registry
// fleet leaves the queue waiting, and a joiner takes the requeued shard
// first and finishes the campaign.
func TestFleetPoolRegistryWaitsForJoiner(t *testing.T) {
	p := testPool(t, 1, true, []string{"http://a"}, []shardWork{shard("fft", 0, 1), shard("lu", 0, 1)})
	s := mustTake(t, p, "http://a")
	p.workerDied("http://a", s, errors.New("connection refused"))
	p.mu.Lock()
	failed, timer := p.failed, p.graceTimer
	p.mu.Unlock()
	if failed != nil || timer == nil {
		t.Fatalf("registry fleet loss: failed = %v, grace timer set = %v; want a waiting queue", failed, timer != nil)
	}

	if !p.addWorker("http://b") {
		t.Fatal("joiner started no loop")
	}
	got := strings.Join(drain(t, p, "http://b"), " ")
	if got != "fft.0.1 lu.0.1" {
		t.Fatalf("joiner takes = %s, want fft.0.1 lu.0.1", got)
	}
	if failed, interrupted := p.waitDone(); failed != nil || interrupted {
		t.Fatalf("waitDone = %v, %v; want success", failed, interrupted)
	}
}

// TestFleetPoolProgress pins the §7 worker fields: shards_in_flight counts
// the taken shard, health follows markSuspect and completion, and
// latency_ewma_ms reads 0 until the worker's first completed shard.
func TestFleetPoolProgress(t *testing.T) {
	p := testPool(t, 1, false, []string{"http://a"}, []shardWork{shard("fft", 0, 1), shard("lu", 0, 1)})
	s := mustTake(t, p, "http://a")
	want := server.ProgressWorker{URL: "http://a", Health: server.WorkerLive, ShardsInFlight: 1}
	prog := p.snapshot()
	if prog.ShardsRequeued != 0 || len(prog.Workers) != 1 || prog.Workers[0] != want {
		t.Fatalf("progress before a completion = %+v", prog)
	}
	p.markSuspect("http://a")
	if got := p.snapshot().Workers[0].Health; got != server.WorkerSuspect {
		t.Fatalf("health after markSuspect = %q", got)
	}
	p.completed("http://a", s, 10*time.Millisecond)
	want = server.ProgressWorker{URL: "http://a", Health: server.WorkerLive, ShardsDone: 1, LatencyEwmaMs: 10}
	if got := p.snapshot().Workers[0]; got != want {
		t.Fatalf("worker after a completion = %+v, want %+v", got, want)
	}
}
