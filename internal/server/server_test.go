package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cord/internal/replay"
	"cord/internal/workload"
)

func shutdownOrFail(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func postDetect(t *testing.T, url string, req DetectRequest) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/detect", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/detect: %v", err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, b
}

// TestConcurrentSessionsByteStable: N concurrent identical sessions on a
// pool of W < N workers all complete, and every response body is
// byte-identical — the engine's determinism survives the service layer.
func TestConcurrentSessionsByteStable(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 32})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer shutdownOrFail(t, srv)

	const n = 8
	req := DetectRequest{App: "fft", Seed: 3, Inject: 5}
	bodies := make([][]byte, n)
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := postDetect(t, ts.URL, req)
			statuses[i], bodies[i] = resp.StatusCode, b
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs from request 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}

	// The service body must equal the canonical encoding of a direct run —
	// the HTTP layer adds nothing nondeterministic.
	want, err := RunDetect(context.Background(), req)
	if err != nil {
		t.Fatalf("RunDetect: %v", err)
	}
	wantB, _ := encodeJSON(want)
	if !bytes.Equal(bodies[0], wantB) {
		t.Fatalf("service body differs from direct RunDetect encoding")
	}
	m := srv.Metrics()
	if m.Sessions.Completed != n {
		t.Fatalf("completed = %d, want %d", m.Sessions.Completed, n)
	}
}

// TestQueueFullRejects: when every worker is busy and the queue is full, a
// new session is rejected immediately with 429 and a Retry-After hint, and
// the accepted sessions still complete once unblocked.
func TestQueueFullRejects(t *testing.T) {
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
		t.Fatalf("third request: status %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 response missing Retry-After header")
	}
	close(block)
	for i := 0; i < 2; i++ {
		if st := <-results; st != http.StatusOK {
			t.Fatalf("accepted session %d finished with status %d", i, st)
		}
	}
	if m := srv.Metrics(); m.Sessions.RejectedQueueFull != 1 || m.Sessions.Completed != 2 {
		t.Fatalf("counters: %+v", m.Sessions)
	}
}

// TestClientDisconnectCancelsEngine: cancelling an in-flight request stops
// the simulation engine (the session is classified canceled long before the
// run could complete) and leaks no goroutines.
func TestClientDisconnectCancelsEngine(t *testing.T) {
	before := runtime.NumGoroutine()
	srv := New(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv)

	// A scale-4096 run takes far longer than this test is willing to wait;
	// only engine cancellation can finish the session promptly.
	body, _ := json.Marshal(DetectRequest{App: "fft", Seed: 1, Scale: 4096})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/detect", bytes.NewReader(body))
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	waitFor(t, "session to start", func() bool { return srv.Metrics().Sessions.Started == 1 })
	cancel()
	if err := <-errc; err == nil {
		t.Fatalf("cancelled request unexpectedly succeeded")
	}
	waitFor(t, "session to be classified canceled", func() bool {
		return srv.Metrics().Sessions.Canceled == 1
	})

	shutdownOrFail(t, srv)
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	waitFor(t, "goroutines to drain", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before
	})
}

// TestGracefulShutdownDrains: Shutdown lets every accepted session finish
// (none dropped) while rejecting new work with 503.
func TestGracefulShutdownDrains(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 2})
	block := make(chan struct{})
	srv.runDetect = func(ctx context.Context, req DetectRequest) (*DetectResponse, error) {
		select {
		case <-block:
			return &DetectResponse{Schema: SchemaVersion, App: req.App}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Fill the worker and then the queue one request at a time so none of
	// the three can bounce off a momentarily-full queue.
	results := make(chan int, 3)
	for i := 0; i < 3; i++ {
		go func() {
			resp, _ := postDetect(t, ts.URL, DetectRequest{App: "fft"})
			results <- resp.StatusCode
		}()
		n := uint64(i + 1)
		waitFor(t, "session to be accepted", func() bool { return srv.Metrics().Sessions.Accepted == n })
		if i == 0 {
			waitFor(t, "first session to start", func() bool { return srv.Metrics().Sessions.Started == 1 })
		}
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	waitFor(t, "draining to take effect", func() bool {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	})

	// New work is refused while draining.
	resp, _ := postDetect(t, ts.URL, DetectRequest{App: "fft"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("detect during drain: status %d, want 503", resp.StatusCode)
	}

	close(block)
	for i := 0; i < 3; i++ {
		if st := <-results; st != http.StatusOK {
			t.Fatalf("accepted session %d dropped during shutdown (status %d)", i, st)
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if m := srv.Metrics(); m.Sessions.Completed != 3 || m.Sessions.RejectedDraining == 0 {
		t.Fatalf("counters after drain: %+v", m.Sessions)
	}
}

// TestSessionTimeout: a session exceeding SessionTimeout is cancelled inside
// the engine and answered with 504.
func TestSessionTimeout(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 2, SessionTimeout: 100 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer shutdownOrFail(t, srv)

	resp, body := postDetect(t, ts.URL, DetectRequest{App: "fft", Scale: 4096})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", resp.StatusCode, body)
	}
	if m := srv.Metrics(); m.Sessions.TimedOut != 1 {
		t.Fatalf("timed_out = %d, want 1", m.Sessions.TimedOut)
	}
}

// TestReplayRoundTrip: a log recorded by the replay package replays to
// completion through the service, and a log replayed against the wrong
// program is reported as a divergence verdict, not a transport error.
func TestReplayRoundTrip(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer shutdownOrFail(t, srv)

	app, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	out, err := replay.RecordAndReplay(app.Build(1, 4), replay.Options{Seed: 9, Jitter: 7})
	if err != nil || !out.Match {
		t.Fatalf("recording fixture failed: err=%v match=%v", err, out.Match)
	}
	var buf bytes.Buffer
	if err := out.Log.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	logBytes := buf.Bytes()

	post := func(query string) (*http.Response, []byte) {
		resp, err := http.Post(ts.URL+"/v1/replay?"+query, "application/octet-stream", bytes.NewReader(logBytes))
		if err != nil {
			t.Fatalf("POST /v1/replay: %v", err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, b
	}

	resp, body := post("app=fft&seed=9&threads=4")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay status %d, body %s", resp.StatusCode, body)
	}
	var rr ReplayResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatalf("decoding replay response: %v", err)
	}
	if !rr.Completed || rr.Divergence != "" {
		t.Fatalf("replay verdict: completed=%v divergence=%q", rr.Completed, rr.Divergence)
	}
	if rr.LogEntries != out.Log.Len() {
		t.Fatalf("log_entries = %d, want %d", rr.LogEntries, out.Log.Len())
	}
	if rr.Result.Ops != out.Recorded.Ops {
		t.Fatalf("replayed ops = %d, recorded %d", rr.Result.Ops, out.Recorded.Ops)
	}

	// Byte stability holds for replay sessions too.
	resp2, body2 := post("app=fft&seed=9&threads=4")
	if resp2.StatusCode != http.StatusOK || !bytes.Equal(body, body2) {
		t.Fatalf("repeat replay not byte-identical (status %d)", resp2.StatusCode)
	}

	// The fft log against the lu program cannot be followed: the verdict is
	// divergence, delivered as data with a 2xx.
	resp3, body3 := post("app=lu&seed=9&threads=4")
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("mismatched replay status %d, body %s", resp3.StatusCode, body3)
	}
	var rr3 ReplayResponse
	if err := json.Unmarshal(body3, &rr3); err != nil {
		t.Fatal(err)
	}
	if rr3.Completed {
		t.Fatalf("replaying an fft log against lu reported completion")
	}
}

// TestRequestValidation: malformed and out-of-domain requests are rejected
// up front with 4xx JSON errors and never occupy a worker.
func TestRequestValidation(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1, MaxBodyBytes: 4096})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer shutdownOrFail(t, srv)

	// A well-formed log larger than MaxBodyBytes: too large, not malformed.
	bigLog := genStreamLog(t, 1, 4, 1000, 0, -1)
	if len(bigLog) <= 4096 {
		t.Fatalf("log is %d bytes, want more than MaxBodyBytes 4096", len(bigLog))
	}
	// wantCode is the PROTOCOL.md §5 code of the JSON error body; "" marks
	// the mux's own plain-text answer.
	cases := []struct {
		name       string
		method     string
		url        string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"unknown app", http.MethodPost, "/v1/detect", `{"app":"nope"}`, http.StatusBadRequest, codeBadRequest},
		{"bad json", http.MethodPost, "/v1/detect", `{"app":`, http.StatusBadRequest, codeBadRequest},
		{"unknown field", http.MethodPost, "/v1/detect", `{"app":"fft","sedd":1}`, http.StatusBadRequest, codeBadRequest},
		{"threads too high", http.MethodPost, "/v1/detect", `{"app":"fft","threads":1000}`, http.StatusBadRequest, codeBadRequest},
		{"negative scale", http.MethodPost, "/v1/detect", `{"app":"fft","scale":-1}`, http.StatusBadRequest, codeBadRequest},
		{"oversized body", http.MethodPost, "/v1/detect",
			`{"app":"fft","seed":` + strings.Repeat("1", 5000) + `}`, http.StatusRequestEntityTooLarge, codeTooLarge},
		{"replay bad magic", http.MethodPost, "/v1/replay?app=fft", "not a cord log....", http.StatusBadRequest, codeBadFormat},
		{"replay bad param", http.MethodPost, "/v1/replay?app=fft&threads=x", "", http.StatusBadRequest, codeBadRequest},
		{"replay unknown app", http.MethodPost, "/v1/replay?app=nope", "", http.StatusBadRequest, codeBadRequest},
		{"oversized replay body", http.MethodPost, "/v1/replay?app=fft&seed=1", string(bigLog),
			http.StatusRequestEntityTooLarge, codeTooLarge},
		{"wrong method", http.MethodGet, "/v1/detect", "", http.StatusMethodNotAllowed, ""},
	}
	for _, tc := range cases {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.url, strings.NewReader(tc.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, resp.StatusCode, tc.wantStatus, b)
		}
		if tc.wantCode == "" {
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(b, &eb); err != nil || eb.Code != tc.wantCode {
			t.Errorf("%s: code %q, want %q (body %s)", tc.name, eb.Code, tc.wantCode, b)
		}
	}
	if m := srv.Metrics(); m.Sessions.Accepted != 0 {
		t.Fatalf("invalid requests reached the pool: %+v", m.Sessions)
	}
}

// TestHealthzAndMetrics: the observability endpoints serve schema-versioned
// JSON and the latency histogram accounts every dispatched session.
func TestHealthzAndMetrics(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer shutdownOrFail(t, srv)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || h.Schema != SchemaVersion || h.Workers != 2 {
		t.Fatalf("healthz: status=%d body=%+v", resp.StatusCode, h)
	}

	for seed := uint64(1); seed <= 3; seed++ {
		if resp, b := postDetect(t, ts.URL, DetectRequest{App: "fft", Seed: seed}); resp.StatusCode != http.StatusOK {
			t.Fatalf("detect seed %d: %d %s", seed, resp.StatusCode, b)
		}
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Schema != SchemaVersion {
		t.Fatalf("metrics schema = %d", m.Schema)
	}
	if m.Sessions.Completed != 3 {
		t.Fatalf("completed = %d, want 3", m.Sessions.Completed)
	}
	h1, ok := m.Endpoints["/v1/detect"]
	if !ok {
		t.Fatalf("no latency histogram for /v1/detect: %v", m.Endpoints)
	}
	var total uint64
	for _, c := range h1.Counts {
		total += c
	}
	if h1.Count != 3 || total != 3 {
		t.Fatalf("histogram count = %d (bucket sum %d), want 3", h1.Count, total)
	}
	if len(h1.LeMs) != len(latencyBucketsMs) || len(h1.Counts) != len(latencyBucketsMs)+1 {
		t.Fatalf("histogram shape: %d bounds, %d counts", len(h1.LeMs), len(h1.Counts))
	}
}

// TestObserveBuckets: latency observations land in the right bucket.
func TestObserveBuckets(t *testing.T) {
	m := newMetrics()
	m.observe("/x", 500*time.Microsecond) // <= 1ms: bucket 0
	m.observe("/x", 3*time.Millisecond)   // <= 5ms: bucket 2
	m.observe("/x", 2*time.Hour)          // overflow bucket
	snap := m.snapshot(time.Second, 1, 0, 1)
	h := snap.Endpoints["/x"]
	if h.Counts[0] != 1 || h.Counts[2] != 1 || h.Counts[len(h.Counts)-1] != 1 || h.Count != 3 {
		t.Fatalf("bucket placement: %v", h.Counts)
	}
}

// TestShutdownTimeout: a drain that cannot finish in time reports how much
// work was still in flight instead of hanging.
func TestShutdownTimeout(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1})
	block := make(chan struct{})
	srv.runDetect = func(ctx context.Context, req DetectRequest) (*DetectResponse, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return &DetectResponse{Schema: SchemaVersion}, nil
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		postDetect(t, ts.URL, DetectRequest{App: "fft"})
	}()
	waitFor(t, "session to start", func() bool { return srv.Metrics().Sessions.Started == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := srv.Shutdown(ctx)
	if err == nil {
		t.Fatalf("Shutdown returned nil with a session still in flight")
	}
	if !strings.Contains(err.Error(), "1 sessions") {
		t.Fatalf("shutdown error %q does not report in-flight count", err)
	}
	// Unblock the stuck session: it must still complete (accepted work is
	// never dropped), and a second drain then succeeds.
	close(block)
	<-done
	shutdownOrFail(t, srv)
}
