package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"cord/internal/experiment"
	"cord/internal/workload"
)

// campaignTestMeta is a campaign small enough for endpoint tests: one app,
// a handful of runs.
func campaignTestMeta() experiment.CampaignMeta {
	return experiment.CampaignMeta{BaseSeed: 7, Scale: 1, Threads: 4, Injections: 3, Apps: []string{"fft"}}
}

func campaignFingerprint(t *testing.T, m experiment.CampaignMeta) string {
	t.Helper()
	o, err := experiment.OptionsFromMeta(m)
	if err != nil {
		t.Fatal(err)
	}
	return o.Fingerprint()
}

func postJSON(t *testing.T, url string, v any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, b
}

func decodeErrorBody(t *testing.T, b []byte) errorBody {
	t.Helper()
	var e errorBody
	if err := json.Unmarshal(b, &e); err != nil {
		t.Fatalf("error body %q does not parse: %v", b, err)
	}
	return e
}

// TestCampaignPlan: the plan probe returns the worker's fingerprint and run
// geometry, and that fingerprint matches an independent local computation —
// the agreement a coordinator relies on before dispatching.
func TestCampaignPlan(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdownOrFail(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()

	meta := campaignTestMeta()
	resp, b := postJSON(t, ts.URL+"/v1/campaign/plan", CampaignPlanRequest{Campaign: "c1", Options: meta})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan: status %d, body %s", resp.StatusCode, b)
	}
	var plan CampaignPlanResponse
	if err := json.Unmarshal(b, &plan); err != nil {
		t.Fatal(err)
	}
	if plan.Fingerprint != campaignFingerprint(t, meta) {
		t.Fatalf("plan fingerprint %s, want %s", plan.Fingerprint, campaignFingerprint(t, meta))
	}
	if plan.RunsPerApp != 3 || plan.TotalRuns != 3 || len(plan.Apps) != 1 || plan.Apps[0] != "fft" {
		t.Fatalf("plan geometry: %+v", plan)
	}

	// An all-defaults campaign plans the full Table 1 geometry.
	resp, b = postJSON(t, ts.URL+"/v1/campaign/plan", CampaignPlanRequest{Campaign: "c2"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default plan: status %d, body %s", resp.StatusCode, b)
	}
	var dflt CampaignPlanResponse
	if err := json.Unmarshal(b, &dflt); err != nil {
		t.Fatal(err)
	}
	if len(dflt.Apps) != len(workload.All()) || dflt.TotalRuns != 40*len(workload.All()) {
		t.Fatalf("default plan geometry: %+v", dflt)
	}
}

// TestCampaignPlanRejects: malformed plan requests land on the 400 taxonomy.
func TestCampaignPlanRejects(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdownOrFail(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()

	cases := []struct {
		name string
		req  CampaignPlanRequest
	}{
		{"empty campaign id", CampaignPlanRequest{Campaign: ""}},
		{"bad campaign id", CampaignPlanRequest{Campaign: "no spaces allowed"}},
		{"unknown app", CampaignPlanRequest{Campaign: "c", Options: experiment.CampaignMeta{Apps: []string{"nonesuch"}}}},
		{"negative injections", CampaignPlanRequest{Campaign: "c", Options: experiment.CampaignMeta{Injections: -1}}},
		{"over MaxInjections", CampaignPlanRequest{Campaign: "c", Options: experiment.CampaignMeta{Injections: MaxInjections + 1}}},
		{"over MaxThreads", CampaignPlanRequest{Campaign: "c", Options: experiment.CampaignMeta{Threads: MaxThreads + 1}}},
		{"over MaxScale", CampaignPlanRequest{Campaign: "c", Options: experiment.CampaignMeta{Scale: MaxScale + 1}}},
	}
	for _, tc := range cases {
		resp, b := postJSON(t, ts.URL+"/v1/campaign/plan", tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, resp.StatusCode, b)
			continue
		}
		if e := decodeErrorBody(t, b); e.Code != "bad_request" {
			t.Errorf("%s: code %q, want bad_request", tc.name, e.Code)
		}
	}
}

// TestCampaignShardIdempotent: the §6 idempotency rule, end to end and
// under -race (make race covers this package): concurrent and sequential
// re-sends of one shard all answer 200 with byte-identical bodies, and the
// cells match an in-process ExecuteDetectShard of the same spec.
func TestCampaignShardIdempotent(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer shutdownOrFail(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()

	meta := campaignTestMeta()
	req := CampaignShardRequest{
		Campaign:    "idem",
		ShardID:     "s0",
		Fingerprint: campaignFingerprint(t, meta),
		Options:     meta,
		Range:       experiment.ShardRange{App: "fft", Lo: 0, Hi: 3},
	}

	const resends = 4
	bodies := make([][]byte, resends)
	var wg sync.WaitGroup
	for i := 0; i < resends; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := postJSON(t, ts.URL+"/v1/campaign/shard", req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("re-send %d: status %d, body %s", i, resp.StatusCode, b)
				return
			}
			bodies[i] = b
		}(i)
	}
	wg.Wait()
	for i := 1; i < resends; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("re-send %d returned different bytes", i)
		}
	}

	var shard CampaignShardResponse
	if err := json.Unmarshal(bodies[0], &shard); err != nil {
		t.Fatal(err)
	}
	if shard.Runs != 3 || shard.Fingerprint != req.Fingerprint {
		t.Fatalf("shard response header: %+v", shard)
	}
	opts, err := experiment.OptionsFromMeta(meta)
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiment.ExecuteDetectShard(opts, req.Range)
	if err != nil {
		t.Fatal(err)
	}
	if len(shard.Cells) != len(want) {
		t.Fatalf("shard returned %d cells, want %d", len(shard.Cells), len(want))
	}
	for i := range want {
		if shard.Cells[i].Key != want[i].Key {
			t.Errorf("cell %d key %s, want %s", i, shard.Cells[i].Key, want[i].Key)
			continue
		}
		// The response body re-indents raw cell data (canonical pretty
		// encoding); the journal encoding compacts it back. Compare the
		// values the coordinator would journal.
		var got bytes.Buffer
		if err := json.Compact(&got, shard.Cells[i].Data); err != nil {
			t.Fatalf("cell %d does not compact: %v", i, err)
		}
		if !bytes.Equal(got.Bytes(), want[i].Data) {
			t.Errorf("cell %d data differs:\n got  %s\n want %s", i, got.Bytes(), want[i].Data)
		}
	}
}

// TestCampaignShardConflict: re-using a shard id with different content is
// 409 shard_conflict; a different shard id with the same content is fine.
func TestCampaignShardConflict(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdownOrFail(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()

	meta := campaignTestMeta()
	req := CampaignShardRequest{
		Campaign:    "conf",
		ShardID:     "s0",
		Fingerprint: campaignFingerprint(t, meta),
		Options:     meta,
		Range:       experiment.ShardRange{App: "fft", Lo: 0, Hi: 1},
	}
	if resp, b := postJSON(t, ts.URL+"/v1/campaign/shard", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("first send: status %d, body %s", resp.StatusCode, b)
	}

	mutated := req
	mutated.Range = experiment.ShardRange{App: "fft", Lo: 1, Hi: 2}
	resp, b := postJSON(t, ts.URL+"/v1/campaign/shard", mutated)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting re-use: status %d, want 409 (body %s)", resp.StatusCode, b)
	}
	if e := decodeErrorBody(t, b); e.Code != "shard_conflict" {
		t.Fatalf("conflicting re-use: code %q, want shard_conflict", e.Code)
	}

	fresh := mutated
	fresh.ShardID = "s1"
	if resp, b := postJSON(t, ts.URL+"/v1/campaign/shard", fresh); resp.StatusCode != http.StatusOK {
		t.Fatalf("same content, fresh id: status %d, body %s", resp.StatusCode, b)
	}
}

// TestCampaignShardFingerprintMismatch: a stale or wrong coordinator
// fingerprint is 422 fingerprint_mismatch, before any simulation runs.
func TestCampaignShardFingerprintMismatch(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdownOrFail(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()

	meta := campaignTestMeta()
	for _, fp := range []string{"", "0000000000000000", "not-a-fingerprint"} {
		req := CampaignShardRequest{
			Campaign: "fp", ShardID: "s0", Fingerprint: fp, Options: meta,
			Range: experiment.ShardRange{App: "fft", Lo: 0, Hi: 1},
		}
		resp, b := postJSON(t, ts.URL+"/v1/campaign/shard", req)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("fingerprint %q: status %d, want 422 (body %s)", fp, resp.StatusCode, b)
		}
		if e := decodeErrorBody(t, b); e.Code != "fingerprint_mismatch" {
			t.Fatalf("fingerprint %q: code %q, want fingerprint_mismatch", fp, e.Code)
		}
	}
}

// TestCampaignShardBadRanges: ranges outside the campaign domain are 400
// bad_request, decided before the shard registers its id: the same id then
// carries a good range without a 409.
func TestCampaignShardBadRanges(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdownOrFail(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()

	meta := campaignTestMeta()
	fp := campaignFingerprint(t, meta)
	cases := []experiment.ShardRange{
		{},
		{App: "lu", Lo: 0, Hi: 1},   // not in this campaign's app list
		{App: "fft", Lo: 0, Hi: 4},  // beyond Injections=3
		{App: "fft", Lo: 2, Hi: 2},  // empty
		{App: "fft", Lo: -1, Hi: 1}, // negative
	}
	req := CampaignShardRequest{Campaign: "bad", ShardID: "s0", Fingerprint: fp, Options: meta}
	for i, rng := range cases {
		req.Range = rng
		resp, b := postJSON(t, ts.URL+"/v1/campaign/shard", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400 (body %s)", i, resp.StatusCode, b)
			continue
		}
		if e := decodeErrorBody(t, b); e.Code != "bad_request" {
			t.Errorf("case %d: code %q, want bad_request", i, e.Code)
		}
	}
	req.Range = experiment.ShardRange{App: "fft", Lo: 0, Hi: 1}
	if resp, b := postJSON(t, ts.URL+"/v1/campaign/shard", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("good range under a refused shard's id: status %d, body %s", resp.StatusCode, b)
	}
}

// TestCampaignShardDrainingAndQueueFull: the shard endpoint inherits the
// pool's backpressure taxonomy — 503 draining during shutdown, 429 +
// Retry-After when the queue is full.
func TestCampaignShardDrainingAndQueueFull(t *testing.T) {
	meta := campaignTestMeta()
	fp := campaignFingerprint(t, meta)
	shardReq := func(id string) CampaignShardRequest {
		return CampaignShardRequest{
			Campaign: "bp", ShardID: id, Fingerprint: fp, Options: meta,
			Range: experiment.ShardRange{App: "fft", Lo: 0, Hi: 1},
		}
	}

	t.Run("draining", func(t *testing.T) {
		s := New(Config{Workers: 1})
		ts := httptest.NewServer(s)
		defer ts.Close()
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // expired: Shutdown marks draining and returns immediately
		_ = s.Shutdown(ctx)
		defer shutdownOrFail(t, s)

		resp, b := postJSON(t, ts.URL+"/v1/campaign/shard", shardReq("s0"))
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503 (body %s)", resp.StatusCode, b)
		}
		if e := decodeErrorBody(t, b); e.Code != "draining" {
			t.Fatalf("code %q, want draining", e.Code)
		}
	})

	t.Run("queue full", func(t *testing.T) {
		s := New(Config{Workers: 1, QueueDepth: 1})
		defer shutdownOrFail(t, s)
		// Wedge the single worker and fill the one queue slot with slow
		// detect sessions, so the shard request finds no room.
		block := make(chan struct{})
		s.runDetect = func(ctx context.Context, req DetectRequest) (*DetectResponse, error) {
			<-block
			return &DetectResponse{Schema: SchemaVersion}, nil
		}
		ts := httptest.NewServer(s)
		defer ts.Close()

		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				body, _ := json.Marshal(DetectRequest{App: "fft", Seed: 1})
				resp, err := http.Post(ts.URL+"/v1/detect", "application/json", bytes.NewReader(body))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}()
		}
		// Unwedge the worker before ts.Close and shutdown run, whatever the
		// verdict below — Close waits for those in-flight connections.
		defer wg.Wait()
		defer close(block)
		waitFor(t, "queue to fill", func() bool {
			m := s.Metrics()
			return m.Sessions.Started >= 1 && len(s.queue) == 1
		})

		resp, b := postJSON(t, ts.URL+"/v1/campaign/shard", shardReq("s1"))
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429 (body %s)", resp.StatusCode, b)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After")
		}
		if e := decodeErrorBody(t, b); e.Code != "queue_full" {
			t.Fatalf("code %q, want queue_full", e.Code)
		}
	})
}

// TestCampaignShardStrictBody: unknown fields fail loudly (400) instead of
// silently running a default-configured shard — a typo, and the
// multi-range "ranges" list that schema 1 carried instead of "range".
func TestCampaignShardStrictBody(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdownOrFail(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()

	meta, err := json.Marshal(campaignTestMeta())
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		`{"campaign":"c","shard_id":"s","fingerprnt":"typo"}`,
		`{"campaign":"c","shard_id":"s","fingerprint":"` + campaignFingerprint(t, campaignTestMeta()) +
			`","options":` + string(meta) + `,"ranges":[{"app":"fft","lo":0,"hi":1}]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/campaign/shard", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || decodeErrorBody(t, b).Code != "bad_request" {
			t.Fatalf("%s: status %d, want 400 bad_request (body %s)", body, resp.StatusCode, b)
		}
	}
}
