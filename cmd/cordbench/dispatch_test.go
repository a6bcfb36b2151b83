package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cord/internal/checkpoint"
	"cord/internal/experiment"
	"cord/internal/httpretry"
	"cord/internal/server"
	"cord/internal/workload"
)

// testPolicy keeps worker-death failover fast: real deployments use
// fleetRetryPolicy's second-scale backoff, tests cannot afford it.
var testPolicy = httpretry.Policy{Attempts: 3, Fallback: time.Millisecond, Cap: 5 * time.Millisecond}

// testDispatch runs fleetDispatch against a static worker list with the
// fast test retry policy and a short registry cadence.
func testDispatch(opts experiment.Options, urls []string, shardRuns int, client *http.Client) error {
	return fleetDispatch(opts, fleetConfig{
		Workers:   urls,
		ShardRuns: shardRuns,
		Client:    client,
		Policy:    testPolicy,
	})
}

// fleetTestOptions is a campaign small enough to dispatch many times in a
// test yet wide enough to shard across apps.
func fleetTestOptions(t *testing.T) experiment.Options {
	t.Helper()
	fft, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	lu, err := workload.ByName("lu")
	if err != nil {
		t.Fatal(err)
	}
	return experiment.Options{
		BaseSeed:   7,
		Injections: 4,
		Apps:       []workload.App{fft, lu},
		Procs:      2,
	}
}

func openTestJournal(t *testing.T) *checkpoint.Journal {
	t.Helper()
	jl, err := checkpoint.Open(filepath.Join(t.TempDir(), journalName))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jl.Close() })
	return jl
}

// newWorker starts a real cordd worker over httptest.
func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(server.New(server.Config{Workers: 2}))
	t.Cleanup(ts.Close)
	return ts
}

// newMeteredWorker additionally returns the server handle, so tests can
// assert on its /metrics fleet counters (shards_requeued is bumped by the
// worker that receives a requeued shard).
func newMeteredWorker(t *testing.T) (*httptest.Server, *server.Server) {
	t.Helper()
	srv := server.New(server.Config{Workers: 2})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv
}

// newSlowWorker starts a real worker whose shard responses are delayed. Its
// loop pulls from the shared queue like any other, so it simply takes fewer
// shards than a faster peer.
func newSlowWorker(t *testing.T, delay time.Duration) *httptest.Server {
	t.Helper()
	backend := server.New(server.Config{Workers: 2})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/campaign/shard") {
			time.Sleep(delay)
		}
		backend.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// registerWorker announces a worker URL to a §7 registry with a TTL that
// outlives any test.
func registerWorker(t *testing.T, client *http.Client, registry, worker string) {
	t.Helper()
	body, err := json.Marshal(server.FleetRegisterRequest{URL: worker, TTLSeconds: 300})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(registry+"/v1/fleet/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("registering %s: status %d", worker, resp.StatusCode)
	}
}

// requireJournalComplete fails the test unless every cell of the dispatched
// campaign is in its journal.
func requireJournalComplete(t *testing.T, opts experiment.Options) {
	t.Helper()
	meta := opts.Meta()
	var keys []string
	for _, app := range meta.Apps {
		k, err := opts.DetectKeys(experiment.ShardRange{App: app, Lo: 0, Hi: meta.Injections})
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k...)
	}
	if want := len(meta.Apps) * (1 + meta.Injections); len(keys) != want {
		t.Fatalf("campaign has %d journal keys, want %d", len(keys), want)
	}
	for _, k := range keys {
		if !opts.Checkpoint.Has(k) {
			t.Fatalf("cell %s missing from the journal", k)
		}
	}
}

func TestParseWorkers(t *testing.T) {
	urls, err := parseWorkers(" http://a:8080/ ,https://b")
	if err != nil {
		t.Fatal(err)
	}
	if len(urls) != 2 || urls[0] != "http://a:8080" || urls[1] != "https://b" {
		t.Fatalf("parseWorkers = %v", urls)
	}
	for _, bad := range []string{"", "http://a,,http://b", "ftp://a", "localhost:8080"} {
		if _, err := parseWorkers(bad); err == nil {
			t.Errorf("parseWorkers(%q) accepted", bad)
		}
	}
}

func TestBuildShards(t *testing.T) {
	meta := experiment.CampaignMeta{Apps: []string{"fft", "lu"}, Injections: 5}
	shards := buildShards(meta, 2)
	var got []string
	runs := 0
	for _, s := range shards {
		got = append(got, s.id())
		runs += s.runs()
	}
	want := []string{"fft.0.2", "fft.2.4", "fft.4.5", "lu.0.2", "lu.2.4", "lu.4.5"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("shard ids = %v, want %v", got, want)
	}
	if runs != 10 {
		t.Fatalf("total shard runs = %d, want 10", runs)
	}
}

// TestFleetDispatchEquivalence is the acceptance property end to end: a
// campaign dispatched over two workers, merged through the journal, and
// aggregated by the unchanged RunDetection is byte-identical to a direct
// local run — and simulates nothing locally (every run is a journal hit).
func TestFleetDispatchEquivalence(t *testing.T) {
	opts := fleetTestOptions(t)
	w1, w2 := newWorker(t), newWorker(t)

	jl := openTestJournal(t)
	dopts := opts
	dopts.Checkpoint = jl
	err := testDispatch(dopts, []string{w1.URL, w2.URL}, 3, w1.Client())
	if err != nil {
		t.Fatalf("fleetDispatch: %v", err)
	}

	fleetRes, err := experiment.RunDetection(dopts)
	if err != nil {
		t.Fatalf("aggregating fleet journal: %v", err)
	}
	wantHits := len(opts.Apps) * (1 + opts.Injections)
	if jl.Hits() != wantHits {
		t.Fatalf("aggregation hit the journal %d times, want %d (a miss means a run was silently re-simulated locally)", jl.Hits(), wantHits)
	}

	directRes, err := experiment.RunDetection(opts)
	if err != nil {
		t.Fatalf("direct campaign: %v", err)
	}
	fleetJSON, err := json.Marshal(fleetRes)
	if err != nil {
		t.Fatal(err)
	}
	directJSON, err := json.Marshal(directRes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fleetJSON, directJSON) {
		t.Fatalf("fleet-dispatched results differ from a direct run:\nfleet:  %s\ndirect: %s", fleetJSON, directJSON)
	}
}

// TestFleetDispatchWorkerDeathReshards kills one worker mid-campaign (it
// starts failing every shard after its first) and requires the dispatch to
// finish on the survivor with a complete journal.
//
// The survivor holds its shard responses until the dying worker has received
// its second shard request, so the death always happens: otherwise a fast
// survivor can finish the campaign before the dying worker asks again.
func TestFleetDispatchWorkerDeathReshards(t *testing.T) {
	opts := fleetTestOptions(t)

	// The dying worker answers its plan probe and first shard from a real
	// server, then fails everything — indistinguishable on the wire from a
	// worker that crashed after one shard.
	var shardsSeen atomic.Int64
	died := make(chan struct{})
	backend := server.New(server.Config{Workers: 2})
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/campaign/shard") {
			if n := shardsSeen.Add(1); n > 1 {
				if n == 2 {
					close(died)
				}
				http.Error(w, "worker lost", http.StatusInternalServerError)
				return
			}
		}
		backend.ServeHTTP(w, r)
	}))
	t.Cleanup(dying.Close)

	const hold = 30 * time.Second
	deadline, cancel := context.WithTimeout(context.Background(), hold)
	defer cancel()
	var stalled atomic.Bool
	healthySrv := server.New(server.Config{Workers: 2})
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/campaign/shard") {
			select {
			case <-died:
			case <-deadline.Done():
				stalled.Store(true)
			}
		}
		healthySrv.ServeHTTP(w, r)
	}))
	t.Cleanup(healthy.Close)

	jl := openTestJournal(t)
	dopts := opts
	dopts.Checkpoint = jl
	err := testDispatch(dopts, []string{healthy.URL, dying.URL}, 1, healthy.Client())
	if stalled.Load() {
		t.Fatalf("the dying worker got no second shard request within %v; the survivor was released by the deadline", hold)
	}
	if err != nil {
		t.Fatalf("fleetDispatch with a dying worker: %v", err)
	}
	if got := shardsSeen.Load(); got < 2 {
		t.Fatalf("dying worker saw %d shard requests; the test never exercised its death", got)
	}

	// The journal must still cover the whole campaign.
	requireJournalComplete(t, dopts)
	// The rescue is visible on the wire: the survivor executed shards that
	// declared origin=requeue, which its /metrics fleet block counts.
	if got := healthySrv.Metrics().Fleet.ShardsRequeued; got == 0 {
		t.Fatal("survivor executed no origin=requeue shards (fleet.shards_requeued = 0)")
	}
}

// TestFleetDispatchRetryAfter verifies the 429 path: a worker that throttles
// each shard's first attempt is retried (honoring Retry-After) rather than
// declared dead.
func TestFleetDispatchRetryAfter(t *testing.T) {
	opts := fleetTestOptions(t)
	opts.Injections = 2
	var throttled atomic.Int64
	firstAttempt := make(map[string]bool)
	backend := server.New(server.Config{Workers: 2})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/campaign/shard") {
			var req server.CampaignShardRequest
			body, _ := io.ReadAll(r.Body)
			_ = json.Unmarshal(body, &req)
			if !firstAttempt[req.ShardID] {
				firstAttempt[req.ShardID] = true
				throttled.Add(1)
				w.Header().Set("Retry-After", "0")
				http.Error(w, `{"code":"queue_full"}`, http.StatusTooManyRequests)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		backend.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	jl := openTestJournal(t)
	dopts := opts
	dopts.Checkpoint = jl
	if err := testDispatch(dopts, []string{ts.URL}, 1, ts.Client()); err != nil {
		t.Fatalf("fleetDispatch through 429s: %v", err)
	}
	if throttled.Load() == 0 {
		t.Fatal("the throttling path was never exercised")
	}
}

// TestFleetDispatchFingerprintSkew: a worker whose plan fingerprint
// disagrees must abort the dispatch — merging its cells would corrupt the
// campaign silently.
func TestFleetDispatchFingerprintSkew(t *testing.T) {
	opts := fleetTestOptions(t)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(server.CampaignPlanResponse{
			Schema:      server.SchemaVersion,
			Fingerprint: "deadbeefdeadbeef",
		})
	}))
	t.Cleanup(ts.Close)

	dopts := opts
	dopts.Checkpoint = openTestJournal(t)
	err := testDispatch(dopts, []string{ts.URL}, 2, ts.Client())
	if err == nil || !strings.Contains(err.Error(), "refusing to merge") {
		t.Fatalf("fingerprint skew not fatal: %v", err)
	}
}

// TestFleetDispatchBadPlanIsFatal: a worker that 400s the plan (e.g. the
// configuration is out of its request domain) is a campaign problem, not a
// worker problem — no point failing over.
func TestFleetDispatchBadPlanIsFatal(t *testing.T) {
	opts := fleetTestOptions(t)
	opts.Injections = server.MaxInjections + 1
	ts := newWorker(t)
	dopts := opts
	dopts.Checkpoint = openTestJournal(t)
	err := testDispatch(dopts, []string{ts.URL}, 2, ts.Client())
	if err == nil || !strings.Contains(err.Error(), "rejected the campaign plan") {
		t.Fatalf("bad plan not fatal: %v", err)
	}
}

// TestFleetDispatchAllWorkersUnreachable: with no usable worker the
// dispatch fails up front instead of hanging.
func TestFleetDispatchAllWorkersUnreachable(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	client := dead.Client()
	dead.Close() // nothing is listening anymore

	opts := fleetTestOptions(t)
	opts.Checkpoint = openTestJournal(t)
	err := testDispatch(opts, []string{dead.URL}, 2, client)
	if err == nil || !strings.Contains(err.Error(), "none of the 1 workers is usable") {
		t.Fatalf("unreachable fleet not fatal: %v", err)
	}
}

// TestFleetDispatchResumeSkipsJournaledShards: a fully journaled campaign
// dispatches zero shards (the -resume fast path).
func TestFleetDispatchResumeSkipsJournaledShards(t *testing.T) {
	opts := fleetTestOptions(t)
	jl := openTestJournal(t)

	// Journal the whole campaign locally first.
	local := opts
	local.Checkpoint = jl
	if _, err := experiment.RunDetection(local); err != nil {
		t.Fatal(err)
	}

	var shardPosts atomic.Int64
	backend := server.New(server.Config{Workers: 2})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/campaign/shard") {
			shardPosts.Add(1)
		}
		backend.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	if err := testDispatch(local, []string{ts.URL}, 2, ts.Client()); err != nil {
		t.Fatalf("fleetDispatch over a complete journal: %v", err)
	}
	if n := shardPosts.Load(); n != 0 {
		t.Fatalf("complete journal still dispatched %d shards", n)
	}
}

// TestFleetDispatchStealsFromSlowWorker pairs a fast worker with one that
// holds its first shard until the fast worker has run every other injection
// run. Nothing is stolen: both loops pull from one shared queue, so the fast
// worker drains it while the slow one is busy, and the slow worker never
// takes a second shard.
//
// Both holds are events, not delays. The fast worker keeps its first
// response until the slow worker has received a shard request, so the slow
// worker is always in the campaign; the slow worker then keeps its response
// until the fast worker's handler has answered every run outside that
// shard. Runs, not requests, are counted, because the scheduler may coalesce
// neighbouring shards.
func TestFleetDispatchStealsFromSlowWorker(t *testing.T) {
	opts := fleetTestOptions(t)
	total := int64(len(opts.Apps) * opts.Injections)

	const hold = 30 * time.Second
	deadline, cancel := context.WithTimeout(context.Background(), hold)
	defer cancel()
	var stalled atomic.Bool
	wait := func(ch <-chan struct{}) {
		select {
		case <-ch:
		case <-deadline.Done():
			stalled.Store(true)
		}
	}
	// shardRuns reads a shard request's run count and restores its body.
	shardRuns := func(r *http.Request) int64 {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		var req server.CampaignShardRequest
		_ = json.Unmarshal(body, &req)
		return int64(req.Range.Hi - req.Range.Lo)
	}

	slowGot := make(chan struct{})
	fastDone := make(chan struct{})
	var slowShards, slowRuns, fastRuns atomic.Int64
	slowBackend := server.New(server.Config{Workers: 2})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/campaign/shard") {
			if slowShards.Add(1) == 1 {
				slowRuns.Store(shardRuns(r))
				close(slowGot)
			}
			wait(fastDone)
		}
		slowBackend.ServeHTTP(w, r)
	}))
	t.Cleanup(slow.Close)
	fastBackend := server.New(server.Config{Workers: 2})
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/campaign/shard") {
			fastBackend.ServeHTTP(w, r)
			return
		}
		wait(slowGot)
		runs := shardRuns(r)
		fastBackend.ServeHTTP(w, r)
		if fastRuns.Add(runs)+slowRuns.Load() == total {
			close(fastDone)
		}
	}))
	t.Cleanup(fast.Close)

	dopts := opts
	dopts.Checkpoint = openTestJournal(t)
	err := testDispatch(dopts, []string{fast.URL, slow.URL}, 1, fast.Client())
	if stalled.Load() {
		t.Fatalf("TestFleetDispatchStealsFromSlowWorker: a hold was released by the %v deadline (slow worker got %d shards, fast worker answered %d of %d runs)",
			hold, slowShards.Load(), fastRuns.Load(), total-slowRuns.Load())
	}
	if err != nil {
		t.Fatalf("fleetDispatch with a slow worker: %v", err)
	}
	if got, want := fastRuns.Load(), total-slowRuns.Load(); got != want {
		t.Fatalf("fast worker ran %d runs, want %d", got, want)
	}
	if got := slowShards.Load(); got != 1 {
		t.Fatalf("slow worker got %d shard requests, want 1", got)
	}
	requireJournalComplete(t, dopts)
}

// TestFleetDispatchRegistryFleetLossJoinerFinishes loses the whole fleet in
// registry mode: the only worker fails every shard and dies, its in-flight
// shard goes back to the queue head with no live worker to take it, and a
// worker that registers within JoinGrace takes it and the rest of the queue
// and finishes the campaign.
//
// The joiner registers only after the death is certain: the membership poll
// re-probes a listed worker only once the pool has declared it dead, so the
// dying worker's second plan request is that signal.
func TestFleetDispatchRegistryFleetLossJoinerFinishes(t *testing.T) {
	registry := newWorker(t)
	joiner, joinerSrv := newMeteredWorker(t)

	var plans atomic.Int64
	dead := make(chan struct{})
	backend := server.New(server.Config{Workers: 2})
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/campaign/plan") {
			switch plans.Add(1) {
			case 1:
				backend.ServeHTTP(w, r)
				return
			case 2:
				close(dead)
			}
		}
		http.Error(w, "worker lost", http.StatusInternalServerError)
	}))
	t.Cleanup(dying.Close)
	registerWorker(t, registry.Client(), registry.URL, dying.URL)

	// The joiner registers from a goroutine (a raw POST: t.Fatal is not
	// allowed off the test goroutine — if it fails, the dispatch reports the
	// grace expiry).
	const hold = 30 * time.Second
	deadline, cancel := context.WithTimeout(context.Background(), hold)
	defer cancel()
	var stalled atomic.Bool
	go func() {
		select {
		case <-dead:
		case <-deadline.Done():
			stalled.Store(true)
			return
		}
		body, _ := json.Marshal(server.FleetRegisterRequest{URL: joiner.URL, TTLSeconds: 300})
		resp, err := http.Post(registry.URL+"/v1/fleet/register", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()

	opts := fleetTestOptions(t)
	opts.Checkpoint = openTestJournal(t)
	err := fleetDispatch(opts, fleetConfig{
		Registry:     registry.URL,
		ShardRuns:    1,
		Client:       registry.Client(),
		Policy:       testPolicy,
		PollInterval: 10 * time.Millisecond,
		JoinGrace:    hold,
	})
	if stalled.Load() {
		t.Fatalf("TestFleetDispatchRegistryFleetLossJoinerFinishes: the dying worker was not re-probed within %v", hold)
	}
	if err != nil {
		t.Fatalf("registry dispatch after losing the fleet: %v", err)
	}
	requireJournalComplete(t, opts)
	if got := joinerSrv.Metrics().Fleet.ShardsRequeued; got == 0 {
		t.Fatal("joiner executed no origin=requeue shards (fleet.shards_requeued = 0)")
	}
}

// TestFleetDispatchRegistryLateJoiner resolves the fleet from a §7 registry:
// the campaign starts on one slow worker, a second worker registers while it
// runs, and the membership poll must probe the joiner and put it to work.
func TestFleetDispatchRegistryLateJoiner(t *testing.T) {
	opts := fleetTestOptions(t) // 8 single-run shards
	registry := newWorker(t)
	slow := newSlowWorker(t, 30*time.Millisecond)

	var joinerShards atomic.Int64
	joinerBackend := server.New(server.Config{Workers: 2})
	joiner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/campaign/shard") {
			joinerShards.Add(1)
		}
		joinerBackend.ServeHTTP(w, r)
	}))
	t.Cleanup(joiner.Close)

	registerWorker(t, registry.Client(), registry.URL, slow.URL)
	// The joiner announces itself a few slow shards into the campaign (a
	// raw POST: t.Fatal is not allowed off the test goroutine — if it fails,
	// the joinerShards assertion below reports it).
	go func() {
		time.Sleep(60 * time.Millisecond)
		body, _ := json.Marshal(server.FleetRegisterRequest{URL: joiner.URL, TTLSeconds: 300})
		resp, err := http.Post(registry.URL+"/v1/fleet/register", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()

	dopts := opts
	dopts.Checkpoint = openTestJournal(t)
	err := fleetDispatch(dopts, fleetConfig{
		Registry:     registry.URL,
		ShardRuns:    1,
		Client:       registry.Client(),
		Policy:       testPolicy,
		PollInterval: 10 * time.Millisecond,
		JoinGrace:    2 * time.Second,
	})
	if err != nil {
		t.Fatalf("registry dispatch: %v", err)
	}
	if joinerShards.Load() == 0 {
		t.Fatal("late joiner executed no shards; membership polling never picked it up")
	}
	requireJournalComplete(t, dopts)
}

// TestFleetDispatchRegistryGraceExpires: in registry mode losing every
// worker holds the queue for JoinGrace, and with no joiner the dispatch
// fails with the grace diagnosis instead of hanging.
func TestFleetDispatchRegistryGraceExpires(t *testing.T) {
	registry := newWorker(t)

	// The worker answers exactly one plan probe (the coordinator's), then
	// fails everything — so after its death the membership poll cannot
	// revive it either.
	var plans atomic.Int64
	backend := server.New(server.Config{Workers: 2})
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/campaign/plan") && plans.Add(1) == 1 {
			backend.ServeHTTP(w, r)
			return
		}
		http.Error(w, "worker lost", http.StatusInternalServerError)
	}))
	t.Cleanup(dying.Close)
	registerWorker(t, registry.Client(), registry.URL, dying.URL)

	opts := fleetTestOptions(t)
	opts.Checkpoint = openTestJournal(t)
	err := fleetDispatch(opts, fleetConfig{
		Registry:     registry.URL,
		ShardRuns:    2,
		Client:       registry.Client(),
		Policy:       testPolicy,
		PollInterval: 10 * time.Millisecond,
		JoinGrace:    100 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "none joined within") {
		t.Fatalf("grace expiry not reported: %v", err)
	}
}

// TestStartProgressServer: the coordinator's progress endpoint binds an
// ephemeral port and serves the §7 resource.
func TestStartProgressServer(t *testing.T) {
	base, stop, err := startProgressServer("127.0.0.1:0", func() server.CampaignProgress {
		return server.CampaignProgress{Campaign: "bench-f00", Fingerprint: "f00", CellsDone: 1, CellsTotal: 4}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get(base + "/v1/campaign/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("progress status = %d", resp.StatusCode)
	}
	var prog server.CampaignProgress
	if err := json.NewDecoder(resp.Body).Decode(&prog); err != nil {
		t.Fatal(err)
	}
	if prog.Schema != server.SchemaVersion || prog.Campaign != "bench-f00" || prog.CellsDone != 1 {
		t.Fatalf("progress = %+v", prog)
	}
}

// TestFleetDispatchInterrupt: an interrupt closed before dispatch returns
// ErrInterrupted without sending work.
func TestFleetDispatchInterrupt(t *testing.T) {
	opts := fleetTestOptions(t)
	opts.Checkpoint = openTestJournal(t)
	interrupt := make(chan struct{})
	close(interrupt)
	opts.Interrupt = interrupt

	ts := newWorker(t)
	err := testDispatch(opts, []string{ts.URL}, 2, ts.Client())
	if !errors.Is(err, experiment.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
}
