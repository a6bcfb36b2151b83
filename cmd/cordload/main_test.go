package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cord/internal/httpretry"
	"cord/internal/record"
	"cord/internal/server"
)

// TestValidateFlags: load parameters must be rejected before the sweep
// starts hammering a server with nonsense.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name     string
		n        int
		scale    int
		threads  int
		d        int
		retries  int
		retryCap time.Duration
		wantErr  bool
	}{
		{"defaults", 32, 1, 4, 16, 5, 5 * time.Second, false},
		{"minimal", 1, 1, 1, 1, 1, time.Millisecond, false},
		{"zero n", 0, 1, 4, 16, 5, 5 * time.Second, true},
		{"negative n", -5, 1, 4, 16, 5, 5 * time.Second, true},
		{"zero scale", 32, 0, 4, 16, 5, 5 * time.Second, true},
		{"zero threads", 32, 1, 0, 16, 5, 5 * time.Second, true},
		{"zero d", 32, 1, 4, 0, 5, 5 * time.Second, true},
		{"zero retries", 32, 1, 4, 16, 0, 5 * time.Second, true},
		{"zero retry cap", 32, 1, 4, 16, 5, 0, true},
	}
	for _, tc := range cases {
		err := validateFlags(tc.n, tc.scale, tc.threads, tc.d, tc.retries, tc.retryCap)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: validateFlags = %v, wantErr=%v", tc.name, err, tc.wantErr)
		}
	}
}

// TestRunStageRetriesThrottling: a server that 429s every session once must
// still end the stage with every session OK, the pushback visible in the
// retry counter, and nothing counted as a hard error — unless the throttling
// outlives the attempt budget, which becomes exactly one error per session.
func TestRunStageRetriesThrottling(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		seen[string(body)]++
		first := seen[string(body)] == 1
		mu.Unlock()
		if first {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "queue full", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()

	policy := httpretry.Policy{Attempts: 3, Fallback: time.Millisecond, Cap: 10 * time.Millisecond}
	post := detectPost(srv.Client(), srv.URL, server.DetectRequest{App: "fft", Seed: 1})
	res := runStage(srv.URL, 2, 6, policy, post)
	if res.ok != 6 || res.errors != 0 {
		t.Fatalf("ok=%d errors=%d, want 6 ok and 0 errors", res.ok, res.errors)
	}
	if res.retries != 6 {
		t.Fatalf("retries=%d, want 6 (each session throttled once)", res.retries)
	}

	// A single-attempt policy turns the same throttling into hard errors.
	mu.Lock()
	seen = map[string]int{}
	mu.Unlock()
	res = runStage(srv.URL, 1, 3, httpretry.Policy{Attempts: 1, Fallback: time.Millisecond, Cap: time.Millisecond}, post)
	if res.ok != 0 || res.errors != 3 || res.retries != 0 {
		t.Fatalf("ok=%d errors=%d retries=%d, want 0/3/0 with no retry budget", res.ok, res.errors, res.retries)
	}
}

// TestRunStreamStage: the stream poster uploads the same body for every
// session, in chunked reads: the first upload is throttled once, and every
// one of the n uploads that lands delivers the whole body.
func TestRunStreamStage(t *testing.T) {
	body := syntheticStream(1000, 4)
	var mu sync.Mutex
	var got []int
	throttleOnce := true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		if throttleOnce {
			throttleOnce = false
			mu.Unlock()
			w.Header().Set("Retry-After", "0")
			http.Error(w, "slots busy", http.StatusTooManyRequests)
			return
		}
		got = append(got, len(b))
		mu.Unlock()
		w.Write([]byte(`{"schema":2}`))
	}))
	defer srv.Close()

	policy := httpretry.Policy{Attempts: 3, Fallback: time.Millisecond, Cap: 10 * time.Millisecond}
	res := runStage(srv.URL, 2, 4, policy, streamPost(srv.Client(), srv.URL+"/v1/stream?app=fft&seed=1&threads=4&verify=0", body, 256))
	if res.ok != 4 || res.errors != 0 || res.retries != 1 {
		t.Fatalf("ok=%d errors=%d retries=%d, want 4/0/1", res.ok, res.errors, res.retries)
	}
	if len(got) != 4 {
		t.Fatalf("server accepted %d uploads, want 4", len(got))
	}
	for i, n := range got {
		if n != len(body) {
			t.Fatalf("upload %d delivered %d bytes, want %d", i, n, len(body))
		}
	}
}

// TestRunSweepExitsOnHardErrors: a stage with hard errors fails the sweep
// (exit 1) in every mode, even when /metrics answers; a clean sweep exits 0.
func TestRunSweepExitsOnHardErrors(t *testing.T) {
	var fail atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			w.Write([]byte("cordd_sessions_total 0\n"))
			return
		}
		io.Copy(io.Discard, r.Body)
		if fail.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()

	policy := httpretry.Policy{Attempts: 2, Fallback: time.Millisecond, Cap: time.Millisecond}
	body := syntheticStream(100, 4)
	tables := map[string]sweepTable{
		"detect": {clients: "clients", rate: "req/s", unit: 1, prec: 1,
			series: []series{{post: detectPost(srv.Client(), srv.URL, server.DetectRequest{App: "fft", Seed: 1})}}},
		"stream": {clients: "streams", rate: "records/s", unit: 100,
			series: []series{{post: streamPost(srv.Client(), srv.URL+"/v1/stream", body, 64)}}},
		"duty": {group: "duty", clients: "streams", rate: "records/s", unit: 100, series: []series{
			{label: "0", post: streamPost(srv.Client(), srv.URL+"/v1/stream?duty=0", body, 64)},
			{label: "100", post: streamPost(srv.Client(), srv.URL+"/v1/stream?duty=100", body, 64)},
		}},
	}
	for name, tab := range tables {
		fail.Store(true)
		if code := runSweep(srv.Client(), srv.URL, []int{1, 2}, 2, policy, tab); code != 1 {
			t.Errorf("%s sweep against a 500ing server = exit %d, want 1", name, code)
		}
		fail.Store(false)
		if code := runSweep(srv.Client(), srv.URL, []int{1, 2}, 2, policy, tab); code != 0 {
			t.Errorf("%s sweep against a healthy server = exit %d, want 0", name, code)
		}
	}
}

type listCase struct {
	in   string
	want []int // nil: expect an error
}

func checkParseList(t *testing.T, name string, lo, hi int, cases []listCase) {
	t.Helper()
	for _, tc := range cases {
		got, err := parseList(name, tc.in, lo, hi)
		if tc.want == nil {
			if err == nil {
				t.Errorf("parseList(%q, %q) = %v, want an error", name, tc.in, got)
			}
			continue
		}
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("parseList(%q, %q) = %v, %v; want %v", name, tc.in, got, err, tc.want)
		}
	}
}

// TestParseSweep: the -sweep list admits any positive client count and
// rejects everything else.
func TestParseSweep(t *testing.T) {
	checkParseList(t, "sweep", 1, math.MaxInt, []listCase{
		{"1, 2,8", []int{1, 2, 8}},
		{"", nil},
		{"  ", nil},
		{"0", nil},
		{"1,x", nil},
		{"1,,2", nil},
		{"-4", nil},
	})
}

// TestParseDuties: -duty goes through the same bounded-list parser as
// -sweep; it admits 0..100 — a zero duty (the pure-ingest baseline)
// included — and rejects everything outside it.
func TestParseDuties(t *testing.T) {
	checkParseList(t, "duty", 0, 100, []listCase{
		{"0, 50,100", []int{0, 50, 100}},
		{"", nil},
		{"x", nil},
		{"101", nil},
		{"-1", nil},
		{"50,,100", nil},
		{"50,101", nil},
	})
}

// TestSyntheticStreamDecodes: the generated wire bytes are a well-formed
// order log — they decode, declare the right entry count, and satisfy the
// per-thread unwrap invariants a real recording has (Schedule accepts them).
func TestSyntheticStreamDecodes(t *testing.T) {
	const frames, threads = 100_000, 4
	b := syntheticStream(frames, threads)
	l, err := record.DecodeFrom(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("DecodeFrom: %v", err)
	}
	if l.Len() != frames {
		t.Fatalf("decoded %d entries, want %d", l.Len(), frames)
	}
	if _, err := l.Schedule(threads); err != nil {
		t.Fatalf("synthetic stream violates order invariants: %v", err)
	}
}

func TestQuantile(t *testing.T) {
	if q := quantile(nil, 0.95); q != 0 {
		t.Fatalf("quantile(nil) = %v, want 0", q)
	}
	sorted := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q := quantile(sorted, 1.0); q != 10 {
		t.Fatalf("quantile(max) = %v, want 10", q)
	}
	if q := quantile(sorted, 0.0); q != 1 {
		t.Fatalf("quantile(min) = %v, want 1", q)
	}
}

// TestWatchProgress drives the -progress mode through its lifecycle: an
// in-flight poll, a completed campaign (exit 0), and a coordinator that
// vanishes after serving at least one poll (also exit 0 — the campaign ended
// and took its progress endpoint with it).
func TestWatchProgress(t *testing.T) {
	var polls int
	var ts *httptest.Server
	ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/campaign/progress" {
			http.NotFound(w, r)
			return
		}
		polls++
		done := 3
		if polls == 1 {
			done = 1
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"schema":2,"campaign":"bench-f","fingerprint":"f","cells_done":%d,"cells_total":3,"shards_requeued":0,"workers":[{"url":"http://a","health":"live","shards_done":2,"shards_in_flight":1,"latency_ewma_ms":4.5}]}`, done)
	}))
	t.Cleanup(ts.Close)

	if code := watchProgress(ts.Client(), ts.URL, time.Millisecond); code != 0 {
		t.Fatalf("watchProgress on completing campaign = %d, want 0", code)
	}
	if polls < 2 {
		t.Fatalf("watched %d polls, want at least 2 (one in-flight, one complete)", polls)
	}

	// Coordinator vanishing after a successful poll reads as campaign end.
	var once sync.Once
	gone := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served := false
		once.Do(func() {
			served = true
			io.WriteString(w, `{"schema":2,"campaign":"c","fingerprint":"f","cells_done":0,"cells_total":9,"workers":[]}`)
		})
		if !served {
			conn, _, _ := w.(http.Hijacker).Hijack()
			conn.Close() // simulate the process going away mid-poll
		}
	}))
	t.Cleanup(gone.Close)
	if code := watchProgress(gone.Client(), gone.URL, time.Millisecond); code != 0 {
		t.Fatalf("watchProgress on vanished coordinator = %d, want 0", code)
	}

	// A coordinator that never answers is a hard error.
	dead := httptest.NewServer(http.NotFoundHandler())
	client := dead.Client()
	dead.Close()
	if code := watchProgress(client, dead.URL, time.Millisecond); code != 1 {
		t.Fatalf("watchProgress on dead coordinator = %d, want 1", code)
	}
}
