package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cord/internal/record"
)

// TestQueueRetryAfterP50 mirrors TestStreamRetryAfterP50 for the session
// queue: the queue-full 429's Retry-After hint must track the endpoint's
// observed p50 handler latency instead of the historical hardcoded 1s.
func TestQueueRetryAfterP50(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer shutdownOrFail(t, srv)

	if got := srv.retryAfter("/v1/detect"); got != "1" {
		t.Fatalf("cold server Retry-After = %s, want 1", got)
	}
	for i := 0; i < 5; i++ {
		srv.m.observe("/v1/detect", 4200*time.Millisecond)
	}
	if got := srv.retryAfter("/v1/detect"); got != "5" {
		t.Fatalf("p50~5s Retry-After = %s, want 5 (bucket bound)", got)
	}
	for i := 0; i < 50; i++ {
		srv.m.observe("/v1/detect", 2*time.Minute)
	}
	if got := srv.retryAfter("/v1/detect"); got != "30" {
		t.Fatalf("overflow p50 Retry-After = %s, want clamp to 30", got)
	}
	srv2 := New(Config{Workers: 1})
	defer shutdownOrFail(t, srv2)
	for i := 0; i < 9; i++ {
		srv2.m.observe("/v1/detect", 3*time.Millisecond)
	}
	if got := srv2.retryAfter("/v1/detect"); got != "1" {
		t.Fatalf("fast-endpoint Retry-After = %s, want floor 1", got)
	}
}

// TestQueueFullRetryAfterDerived drives the full HTTP path: with latency
// history on /v1/detect, a queue-full 429 carries the derived hint, not "1".
func TestQueueFullRetryAfterDerived(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1})
	block := make(chan struct{})
	srv.runDetect = func(ctx context.Context, req DetectRequest) (*DetectResponse, error) {
		select {
		case <-block:
			return &DetectResponse{Schema: SchemaVersion, App: req.App}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	for i := 0; i < 5; i++ {
		srv.m.observe("/v1/detect", 4200*time.Millisecond)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer shutdownOrFail(t, srv)

	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, _ := postDetect(t, ts.URL, DetectRequest{App: "fft"})
			results <- resp.StatusCode
		}()
		if i == 0 {
			waitFor(t, "first session to start", func() bool { return srv.Metrics().Sessions.Started == 1 })
		} else {
			waitFor(t, "second session to queue", func() bool { return srv.Metrics().Sessions.Accepted == 2 })
		}
	}
	resp, body := postDetect(t, ts.URL, DetectRequest{App: "fft"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "5" {
		t.Fatalf("queue-full Retry-After = %q, want 5 (p50-derived)", got)
	}
	close(block)
	for i := 0; i < 2; i++ {
		<-results
	}
}

// TestReplayOrderViolation422: a structurally valid log whose entries break
// the §3 order invariants (a regressed per-thread clock) must answer 422 /
// order_violation on /v1/replay, not a generic 400 — the same verdict the
// streaming ingest path gives the same bytes.
func TestReplayOrderViolation422(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer shutdownOrFail(t, srv)

	var l record.Log
	l.Append(record.Entry{Clock: 0x0010, Thread: 0, Instr: 1})
	l.Append(record.Entry{Clock: 0xFFF0, Thread: 0, Instr: 1}) // regressed
	var buf bytes.Buffer
	if err := l.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/replay?app=fft", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", resp.StatusCode)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Code != codeOrderViolation {
		t.Fatalf("code %q, want %q", eb.Code, codeOrderViolation)
	}
}

// TestStreamDetectorParam covers the detector= query parameter's domain
// (PROTOCOL.md §4.7): valid only with detect=online, cord|fasttrack only.
func TestStreamDetectorParam(t *testing.T) {
	cases := []struct {
		name, query string
		wantErr     bool
		detector    string
	}{
		{"default is cord", "app=fft", false, "cord"},
		{"explicit fasttrack", "app=fft&detect=online&detector=fasttrack", false, "fasttrack"},
		{"explicit cord", "app=fft&detect=online&detector=cord", false, "cord"},
		{"requires online", "app=fft&detector=fasttrack", true, ""},
		{"unknown family", "app=fft&detect=online&detector=djit", true, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := httptest.NewRequest(http.MethodPost, "/v1/stream?"+tc.query, nil)
			o, err := parseStreamQuery(r)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("query %q accepted", tc.query)
				}
				return
			}
			if err != nil {
				t.Fatalf("query %q rejected: %v", tc.query, err)
			}
			if o.detector != tc.detector {
				t.Fatalf("detector = %q, want %q", o.detector, tc.detector)
			}
		})
	}
}

// TestStreamOnlineFastTrackDetector runs a full detect=online session with
// detector=fasttrack over a racy recording: the FastTrack baseline replays
// the same epoch schedule the CORD detector would and reports the injected
// race, and the summary names the detector family.
func TestStreamOnlineFastTrackDetector(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer shutdownOrFail(t, srv)

	logBytes, injTh, injNth := racyFixture(t, 1, 2)
	query := "app=fft&seed=1&threads=4&inject=2&detect=online&duty=100&detector=fasttrack&verify=0" +
		"&inject_thread=" + itoa(injTh) + "&inject_nth=" + itoa(int(injNth))
	resp, body := postStream(t, ts.URL, query, logBytes, 17)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d, body %s", resp.StatusCode, body)
	}
	_, summary := splitFrames(t, body)
	var sr StreamResponse
	if err := json.Unmarshal(summary, &sr); err != nil {
		t.Fatalf("decoding summary: %v", err)
	}
	if sr.Online == nil {
		t.Fatal("detect=online summary missing the online block")
	}
	if sr.Online.Detector != "fasttrack" {
		t.Fatalf("summary detector = %q, want fasttrack", sr.Online.Detector)
	}
	if !sr.Online.Completed || sr.Online.Divergence != "" {
		t.Fatalf("online replay did not complete: %+v", sr.Online)
	}
	if sr.Online.EpochsTotal == 0 || sr.Online.EpochsObserved != sr.Online.EpochsTotal {
		t.Fatalf("duty=100 coverage accounting wrong: %+v", sr.Online)
	}
	if sr.Online.RacesSoFar == 0 || len(sr.Online.Races) == 0 {
		t.Fatalf("fasttrack missed the injected race: %+v", sr.Online)
	}

	// Determinism: the same stream yields a byte-identical summary.
	resp2, body2 := postStream(t, ts.URL, query, logBytes, 29)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat stream status %d", resp2.StatusCode)
	}
	_, summary2 := splitFrames(t, body2)
	if !bytes.Equal(summary, summary2) {
		t.Fatalf("fasttrack summaries not byte-identical\nfirst: %s\nsecond: %s", summary, summary2)
	}
}

// TestInjectThreadDomainOneRule: /v1/replay and a detect=online stream
// check a replay's injection identity with one rule, so an out-of-range
// inject_thread, or an inject_nth with no injected thread (which the replay
// would ignore), gets the same 400 bad_request, word for word, from both.
func TestInjectThreadDomainOneRule(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer shutdownOrFail(t, srv)

	for _, tc := range []struct{ query, want string }{
		{"app=fft&seed=1&threads=4&inject_thread=9&inject_nth=1",
			"server: bad request: inject_thread must be -1 or a thread id below 4, got 9"},
		{"app=fft&seed=1&inject_nth=3", "server: bad request: inject_nth requires a thread id in inject_thread"},
		{"app=fft&seed=1&inject_thread=-1&inject_nth=1", "server: bad request: inject_nth requires a thread id in inject_thread"},
	} {
		for _, path := range []string{"/v1/replay?" + tc.query, "/v1/stream?" + tc.query + "&detect=online"} {
			resp, err := http.Post(ts.URL+path, "application/octet-stream", nil)
			if err != nil {
				t.Fatal(err)
			}
			var eb errorBody
			err = json.NewDecoder(resp.Body).Decode(&eb)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s: decoding error body: %v", path, err)
			}
			if resp.StatusCode != http.StatusBadRequest || eb.Code != codeBadRequest || eb.Error != tc.want {
				t.Errorf("%s: %d %q %q, want 400 %q %q", path, resp.StatusCode, eb.Code, eb.Error, codeBadRequest, tc.want)
			}
		}
	}
}
