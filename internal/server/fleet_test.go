package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cord/internal/experiment"
)

// getJSON is postJSON's GET sibling.
func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, b
}

func listWorkers(t *testing.T, baseURL string) FleetWorkersResponse {
	t.Helper()
	resp, b := getJSON(t, baseURL+"/v1/fleet/workers")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("workers: status %d, body %s", resp.StatusCode, b)
	}
	var out FleetWorkersResponse
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFleetRegisterAndWorkers: registration, heartbeat refresh, and TTL
// expiry under a frozen, hand-advanced clock — expiry is lazy (prune on
// read), so the clock fully determines every listing.
func TestFleetRegisterAndWorkers(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdownOrFail(t, s)
	clock := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	s.now = func() time.Time { return clock }
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Register out of URL order; the listing must sort.
	resp, b := postJSON(t, ts.URL+"/v1/fleet/register",
		FleetRegisterRequest{URL: "http://w2:8080", Workers: 4, TTLSeconds: 30})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register w2: status %d, body %s", resp.StatusCode, b)
	}
	var reg FleetRegisterResponse
	if err := json.Unmarshal(b, &reg); err != nil {
		t.Fatal(err)
	}
	if reg.TTLSeconds != 30 || reg.LiveWorkers != 1 || reg.URL != "http://w2:8080" {
		t.Fatalf("register w2 response: %+v", reg)
	}
	if resp, b := postJSON(t, ts.URL+"/v1/fleet/register",
		FleetRegisterRequest{URL: "http://w1:8080", Workers: 2}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register w1: status %d, body %s", resp.StatusCode, b)
	}

	got := listWorkers(t, ts.URL)
	want := []FleetWorker{
		{URL: "http://w1:8080", Workers: 2, ExpiresInSeconds: defaultFleetTTLSeconds},
		{URL: "http://w2:8080", Workers: 4, ExpiresInSeconds: 30},
	}
	if len(got.Workers) != 2 || got.Workers[0] != want[0] || got.Workers[1] != want[1] {
		t.Fatalf("listing %+v, want %+v", got.Workers, want)
	}

	// A heartbeat 10s in refreshes w1's deadline and updates its pool size.
	clock = clock.Add(10 * time.Second)
	resp, b = postJSON(t, ts.URL+"/v1/fleet/register",
		FleetRegisterRequest{URL: "http://w1:8080", Workers: 8})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heartbeat w1: status %d, body %s", resp.StatusCode, b)
	}
	got = listWorkers(t, ts.URL)
	if len(got.Workers) != 2 || got.Workers[0].ExpiresInSeconds != defaultFleetTTLSeconds || got.Workers[0].Workers != 8 {
		t.Fatalf("after heartbeat: %+v", got.Workers)
	}
	if got.Workers[1].ExpiresInSeconds != 20 {
		t.Fatalf("w2 expires in %d, want 20", got.Workers[1].ExpiresInSeconds)
	}

	// 16 more seconds: w1's refreshed 15s TTL lapses, w2's 30s survives.
	clock = clock.Add(16 * time.Second)
	got = listWorkers(t, ts.URL)
	if len(got.Workers) != 1 || got.Workers[0].URL != "http://w2:8080" || got.Workers[0].ExpiresInSeconds != 4 {
		t.Fatalf("after expiry: %+v", got.Workers)
	}

	// A re-register after expiry is a fresh registration, not a heartbeat.
	if resp, b := postJSON(t, ts.URL+"/v1/fleet/register",
		FleetRegisterRequest{URL: "http://w1:8080", Workers: 2}); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-register w1: status %d, body %s", resp.StatusCode, b)
	}
	m := s.Metrics()
	if m.Fleet.WorkersRegistered != 3 || m.Fleet.HeartbeatsReceived != 1 || m.Fleet.WorkersExpired != 1 {
		t.Fatalf("fleet counters: %+v", m.Fleet)
	}
	if m.Fleet.LiveWorkers != 2 {
		t.Fatalf("live workers gauge %d, want 2", m.Fleet.LiveWorkers)
	}
}

// TestFleetRegisterRejects: malformed registrations are 400 before touching
// the registry, and unknown fields fail strict decoding like every endpoint.
func TestFleetRegisterRejects(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdownOrFail(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, tc := range []struct {
		name string
		req  FleetRegisterRequest
	}{
		{"empty url", FleetRegisterRequest{}},
		{"relative url", FleetRegisterRequest{URL: "w1:8080"}},
		{"non-http scheme", FleetRegisterRequest{URL: "ftp://w1:8080"}},
		{"hostless url", FleetRegisterRequest{URL: "http://"}},
		{"ttl over cap", FleetRegisterRequest{URL: "http://w1:8080", TTLSeconds: maxFleetTTLSeconds + 1}},
		{"negative ttl", FleetRegisterRequest{URL: "http://w1:8080", TTLSeconds: -1}},
		{"negative workers", FleetRegisterRequest{URL: "http://w1:8080", Workers: -1}},
	} {
		resp, b := postJSON(t, ts.URL+"/v1/fleet/register", tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, resp.StatusCode, b)
		} else if e := decodeErrorBody(t, b); e.Code != "bad_request" {
			t.Errorf("%s: code %q, want bad_request", tc.name, e.Code)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/fleet/register", "application/json",
		strings.NewReader(`{"url":"http://w1:8080","typo_field":1}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, body %s", resp.StatusCode, body)
	}
	if n := listWorkers(t, ts.URL); len(n.Workers) != 0 {
		t.Fatalf("rejected registrations leaked into the registry: %+v", n.Workers)
	}
}

// TestFleetConcurrentHeartbeats hammers the registry from many goroutines —
// registrations, heartbeats, listings, and metric snapshots at once — so the
// race detector covers the paths the acceptance criteria name.
func TestFleetConcurrentHeartbeats(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdownOrFail(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()

	const workers, beats = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			url := "http://w" + string(rune('a'+w)) + ":8080"
			for i := 0; i < beats; i++ {
				resp, b := postJSON(t, ts.URL+"/v1/fleet/register", FleetRegisterRequest{URL: url, Workers: w})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("register %s: status %d, body %s", url, resp.StatusCode, b)
					return
				}
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < beats; i++ {
				listWorkers(t, ts.URL)
				s.Metrics()
			}
		}()
	}
	wg.Wait()

	got := listWorkers(t, ts.URL)
	if len(got.Workers) != workers {
		t.Fatalf("%d live workers, want %d", len(got.Workers), workers)
	}
	m := s.Metrics()
	if m.Fleet.WorkersRegistered != workers || m.Fleet.HeartbeatsReceived != workers*(beats-1) {
		t.Fatalf("fleet counters: %+v", m.Fleet)
	}
}

// TestCampaignShardOrigin: a requeue origin is counted in the fleet metrics
// and is excluded from the shard content hash (so a re-send under a
// different origin is idempotent, not a 409); anything else, the "steal"
// origin of schema 1 included, is rejected.
func TestCampaignShardOrigin(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer shutdownOrFail(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()

	meta := campaignTestMeta()
	req := CampaignShardRequest{
		Campaign:    "orig",
		ShardID:     "s0",
		Fingerprint: campaignFingerprint(t, meta),
		Options:     meta,
		Range:       experiment.ShardRange{App: "fft", Lo: 0, Hi: 1},
	}
	resp, first := postJSON(t, ts.URL+"/v1/campaign/shard", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first dispatch: status %d, body %s", resp.StatusCode, first)
	}

	// Same shard, now re-sent as a requeue: the origin must not change the
	// content hash, so this is an idempotent byte-identical re-execution.
	req.Origin = "requeue"
	resp, again := postJSON(t, ts.URL+"/v1/campaign/shard", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("requeued re-send: status %d, body %s", resp.StatusCode, again)
	}
	if !bytes.Equal(first, again) {
		t.Fatal("origin changed the response bytes of an identical shard")
	}
	m := s.Metrics()
	if m.Fleet.ShardsRequeued != 1 {
		t.Fatalf("fleet shard counters: %+v", m.Fleet)
	}

	for _, origin := range []string{"steal", "bogus"} {
		req.Origin = origin
		resp, b := postJSON(t, ts.URL+"/v1/campaign/shard", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s origin: status %d, body %s", origin, resp.StatusCode, b)
		}
		if e := decodeErrorBody(t, b); e.Code != "bad_request" {
			t.Fatalf("%s origin: code %q, want bad_request", origin, e.Code)
		}
	}
}

// TestShardRegistryEvictionIdempotent: the conflict registry is bounded and
// best-effort — once an old shard id has been evicted, re-sending the
// identical shard must re-register and re-execute idempotently (200 with the
// same bytes), never 409: determinism, not the registry, is the correctness
// mechanism.
func TestShardRegistryEvictionIdempotent(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer shutdownOrFail(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()

	meta := campaignTestMeta()
	req := CampaignShardRequest{
		Campaign:    "evict",
		ShardID:     "s0",
		Fingerprint: campaignFingerprint(t, meta),
		Options:     meta,
		Range:       experiment.ShardRange{App: "fft", Lo: 0, Hi: 2},
	}
	resp, first := postJSON(t, ts.URL+"/v1/campaign/shard", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first send: status %d, body %s", resp.StatusCode, first)
	}

	// Evict the entry the way a full registry would (the eviction victim is
	// an arbitrary map entry, so the test performs the deletion directly).
	s.shardMu.Lock()
	if _, ok := s.shards[shardKey{"evict", "s0"}]; !ok {
		s.shardMu.Unlock()
		t.Fatal("shard never registered")
	}
	delete(s.shards, shardKey{"evict", "s0"})
	s.shardMu.Unlock()

	resp, again := postJSON(t, ts.URL+"/v1/campaign/shard", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-send after eviction: status %d, want 200 (body %s)", resp.StatusCode, again)
	}
	if !bytes.Equal(first, again) {
		t.Fatal("re-execution after eviction returned different bytes")
	}
}

// TestProgressHandler: the adapter stamps the schema, sorts workers, and
// rejects non-GET methods — so every coordinator serving progress agrees on
// bytes for equal states.
func TestProgressHandler(t *testing.T) {
	snapshot := func() CampaignProgress {
		return CampaignProgress{
			Campaign:    "fig12",
			Fingerprint: "deadbeefdeadbeef",
			CellsDone:   3,
			CellsTotal:  8,
			Workers: []ProgressWorker{
				{URL: "http://w2:8080", Health: WorkerLive, ShardsDone: 2, LatencyEwmaMs: 80},
				{URL: "http://w1:8080", Health: WorkerSuspect, ShardsInFlight: 1, LatencyEwmaMs: 120.5},
			},
		}
	}
	ts := httptest.NewServer(ProgressHandler(snapshot))
	defer ts.Close()

	resp, b := getJSON(t, ts.URL+"/v1/campaign/progress")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("progress: status %d, body %s", resp.StatusCode, b)
	}
	var p CampaignProgress
	if err := json.Unmarshal(b, &p); err != nil {
		t.Fatal(err)
	}
	if p.Schema != SchemaVersion {
		t.Fatalf("schema %d, want %d", p.Schema, SchemaVersion)
	}
	if len(p.Workers) != 2 || p.Workers[0].URL != "http://w1:8080" || p.Workers[1].URL != "http://w2:8080" {
		t.Fatalf("workers not sorted by URL: %+v", p.Workers)
	}

	post, err := http.Post(ts.URL+"/v1/campaign/progress", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST progress: status %d, want 405", post.StatusCode)
	}
}
