package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cord/internal/clock"
	"cord/internal/record"
	"cord/internal/replay"
	"cord/internal/workload"
)

// chunkedReader forces the HTTP client into chunked transfer encoding (no
// Len method) and limits every Read to n bytes, so the server-side decoder
// really sees the stream in fragments that split headers and entries.
type chunkedReader struct {
	r io.Reader
	n int
}

func (c *chunkedReader) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

// recordFixture records a real fft order log via the replay package using
// the exact configuration POST /v1/detect runs (seed, jitter 7, 4 threads),
// so the streamed log and the server's re-execution agree byte for byte.
func recordFixture(t *testing.T, seed uint64) []byte {
	t.Helper()
	app, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	out, err := replay.RecordAndReplay(app.Build(1, 4), replay.Options{Seed: seed, Jitter: 7})
	if err != nil || !out.Match {
		t.Fatalf("recording fixture failed: err=%v match=%v", err, out.Match)
	}
	var buf bytes.Buffer
	if err := out.Log.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postStream streams body through POST /v1/stream in small chunks.
func postStream(t *testing.T, url, query string, body []byte, chunk int) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/stream?"+query,
		&chunkedReader{r: bytes.NewReader(body), n: chunk})
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/stream: %v", err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading stream response: %v", err)
	}
	return resp, b
}

// deindent strips one two-space indentation level from a nested MarshalIndent
// block — the inverse of embedding a response one object deep. JSON strings
// cannot contain raw newlines, so the textual transform is exact.
func deindent(raw []byte) []byte {
	return []byte(strings.ReplaceAll(string(raw), "\n  ", "\n"))
}

// TestStreamDetectByteIdentity is the acceptance criterion: streaming a
// recorded order log through /v1/stream yields a summary whose detect
// section is byte-identical to the one-shot /v1/detect response on the same
// parameters, and the streamed log hash-matches the re-execution.
func TestStreamDetectByteIdentity(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer shutdownOrFail(t, srv)

	logBytes := recordFixture(t, 9)
	resp, body := postStream(t, ts.URL, "app=fft&seed=9&threads=4", logBytes, 13)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d, body %s", resp.StatusCode, body)
	}
	var sr StreamResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("decoding stream response: %v", err)
	}
	if !sr.Verified || !sr.LogMatch {
		t.Fatalf("verdict: verified=%v log_match=%v (body %s)", sr.Verified, sr.LogMatch, body)
	}
	if sr.Frames*record.EntryBytes != sr.LogBytes || int(sr.LogBytes) != len(logBytes)-record.HeaderBytes {
		t.Fatalf("frame accounting: frames=%d log_bytes=%d stream=%d", sr.Frames, sr.LogBytes, len(logBytes))
	}

	// Extract the detect block textually and compare bytes against the
	// one-shot endpoint — the same check scripts/service-smoke.sh performs.
	var rawWrap struct {
		Detect json.RawMessage `json:"detect"`
	}
	if err := json.Unmarshal(body, &rawWrap); err != nil {
		t.Fatal(err)
	}
	detResp, detBody := postDetect(t, ts.URL, DetectRequest{App: "fft", Seed: 9, Threads: 4})
	if detResp.StatusCode != http.StatusOK {
		t.Fatalf("one-shot detect status %d", detResp.StatusCode)
	}
	if want := append(deindent(rawWrap.Detect), '\n'); !bytes.Equal(detBody, want) {
		t.Fatalf("stream detect section differs from one-shot /v1/detect:\n%s\nvs\n%s", want, detBody)
	}

	// A repeat stream is byte-identical end to end.
	resp2, body2 := postStream(t, ts.URL, "app=fft&seed=9&threads=4", logBytes, 4096)
	if resp2.StatusCode != http.StatusOK || !bytes.Equal(body, body2) {
		t.Fatalf("repeat stream not byte-identical (status %d)", resp2.StatusCode)
	}
}

// TestConcurrentStreamsByteStable: N identical streams ingested concurrently
// (each chunked differently) all succeed with byte-identical summaries —
// per-session shard state is fully isolated. Run under -race this is also
// the data-race check on the admission path and metrics.
func TestConcurrentStreamsByteStable(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 8, MaxStreams: 8})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer shutdownOrFail(t, srv)

	logBytes := recordFixture(t, 3)
	const n = 6
	bodies := make([][]byte, n)
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := postStream(t, ts.URL, "app=fft&seed=3&threads=4", logBytes, 7+i*11)
			statuses[i], bodies[i] = resp.StatusCode, b
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("stream %d: status %d, body %s", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("stream %d body differs:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	m := srv.Metrics()
	if m.Streams.Completed != n || m.Streams.Started != n {
		t.Fatalf("stream counters: %+v", m.Streams)
	}
	if m.Streams.FramesIngested == 0 || m.Streams.BytesIngested == 0 {
		t.Fatalf("ingest totals not accounted: %+v", m.Streams)
	}
}

// TestStreamMismatchVerdict: streaming a log recorded at one seed against
// parameters naming another seed is a verdict (200, log_match=false), not a
// transport error — the client learns its recording does not reproduce.
func TestStreamMismatchVerdict(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer shutdownOrFail(t, srv)

	logBytes := recordFixture(t, 9)
	resp, body := postStream(t, ts.URL, "app=fft&seed=10&threads=4", logBytes, 64)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var sr StreamResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Verified || sr.LogMatch {
		t.Fatalf("verdict: verified=%v log_match=%v, want verified mismatch", sr.Verified, sr.LogMatch)
	}
}

// TestStreamCancelMidChunk: a client vanishing mid-stream is classified
// canceled, the session releases its slot, and no goroutines leak.
func TestStreamCancelMidChunk(t *testing.T) {
	before := runtime.NumGoroutine()
	srv := New(Config{Workers: 1, QueueDepth: 4, MaxStreams: 1})
	ts := httptest.NewServer(srv)

	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/stream?app=fft&seed=1", pr)
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	// Deliver a valid header plus a partial entry, then hang up mid-chunk.
	var l record.Log
	l.Append(record.Entry{Clock: 1, Thread: 0, Instr: 10})
	l.Append(record.Entry{Clock: 2, Thread: 1, Instr: 20})
	var buf bytes.Buffer
	if err := l.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := pw.Write(buf.Bytes()[:record.HeaderBytes+record.EntryBytes+3]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stream to start", func() bool { return srv.Metrics().Streams.Started == 1 })
	cancel()
	// Abort the body with an error (not a clean close, which would send a
	// valid end-of-chunked-body terminator): the transport stops mid-stream
	// and the server sees its client vanish.
	pw.CloseWithError(io.ErrClosedPipe)
	if err := <-errc; err == nil {
		t.Fatalf("cancelled stream unexpectedly succeeded")
	}
	waitFor(t, "stream to be classified canceled", func() bool {
		return srv.Metrics().Streams.Canceled == 1
	})
	// The slot must be free again: a fresh, well-formed stream succeeds.
	resp, body := postStream(t, ts.URL, "app=fft&seed=3&threads=4&verify=0", recordFixture(t, 3), 4096)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-cancel stream: status %d, body %s", resp.StatusCode, body)
	}

	shutdownOrFail(t, srv)
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	waitFor(t, "goroutines to drain", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before
	})
}

// TestStreamIdleTimeout: a stream that stops delivering bytes is evicted
// with 408 / code idle_timeout once StreamIdleTimeout elapses.
func TestStreamIdleTimeout(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4, StreamIdleTimeout: 150 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer shutdownOrFail(t, srv)

	pr, pw := io.Pipe()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/stream?app=fft&seed=1", pr)
	done := make(chan struct{})
	var status int
	var body []byte
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("idle stream request: %v", err)
			return
		}
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
	}()
	// A few bytes of header, then silence.
	if _, err := pw.Write([]byte("CORD")); err != nil {
		t.Fatal(err)
	}
	<-done
	pw.Close()
	if status != http.StatusRequestTimeout {
		t.Fatalf("status %d, want 408 (body %s)", status, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("408 body is not structured JSON: %v (%s)", err, body)
	}
	if eb.Code != codeIdleTimeout || eb.Schema != SchemaVersion {
		t.Fatalf("408 body: %+v, want code %q", eb, codeIdleTimeout)
	}
	if m := srv.Metrics(); m.Streams.IdleTimeout != 1 {
		t.Fatalf("idle_timeout counter = %d, want 1", m.Streams.IdleTimeout)
	}
}

// TestStreamQuotaExceeded: byte and frame quotas both reject with 413 /
// code quota_exceeded.
func TestStreamQuotaExceeded(t *testing.T) {
	logBytes := recordFixture(t, 3)

	t.Run("bytes", func(t *testing.T) {
		srv := New(Config{Workers: 1, QueueDepth: 4, MaxStreamBytes: 64})
		ts := httptest.NewServer(srv)
		defer ts.Close()
		defer shutdownOrFail(t, srv)
		resp, body := postStream(t, ts.URL, "app=fft&seed=3&threads=4", logBytes, 16)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413 (body %s)", resp.StatusCode, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Code != codeQuotaExceeded {
			t.Fatalf("413 body: %s (err %v), want code %q", body, err, codeQuotaExceeded)
		}
		if m := srv.Metrics(); m.Streams.QuotaExceeded != 1 {
			t.Fatalf("quota counter: %+v", m.Streams)
		}
	})
	t.Run("frames", func(t *testing.T) {
		srv := New(Config{Workers: 1, QueueDepth: 4, MaxStreamFrames: 2})
		ts := httptest.NewServer(srv)
		defer ts.Close()
		defer shutdownOrFail(t, srv)
		resp, body := postStream(t, ts.URL, "app=fft&seed=3&threads=4", logBytes, 4096)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413 (body %s)", resp.StatusCode, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Code != codeQuotaExceeded {
			t.Fatalf("413 body: %s (err %v), want code %q", body, err, codeQuotaExceeded)
		}
	})
}

// TestStreamLimitRejects: with every stream slot occupied, a new stream gets
// 429 + Retry-After / code stream_limit; a slot freeing readmits.
func TestStreamLimitRejects(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4, MaxStreams: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer shutdownOrFail(t, srv)

	logBytes := recordFixture(t, 3)
	pr, pw := io.Pipe()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/stream?app=fft&seed=3&threads=4&verify=0", pr)
	done := make(chan int, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	if _, err := pw.Write(logBytes[:20]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first stream to hold the slot", func() bool { return srv.Metrics().Streams.Started == 1 })

	resp, body := postStream(t, ts.URL, "app=fft&seed=3&threads=4&verify=0", logBytes, 4096)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second stream: status %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 missing Retry-After")
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Code != codeStreamLimit {
		t.Fatalf("429 body: %s (err %v), want code %q", body, err, codeStreamLimit)
	}

	// Finish the first stream; its slot frees and a new stream succeeds.
	if _, err := pw.Write(logBytes[20:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if st := <-done; st != http.StatusOK {
		t.Fatalf("first stream finished with status %d", st)
	}
	resp2, body2 := postStream(t, ts.URL, "app=fft&seed=3&threads=4&verify=0", logBytes, 4096)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-release stream: status %d, body %s", resp2.StatusCode, body2)
	}
	if m := srv.Metrics(); m.Streams.RejectedLimit != 1 || m.Streams.Completed != 2 {
		t.Fatalf("counters: %+v", m.Streams)
	}
}

// TestStreamErrorTaxonomy: every malformed-stream failure mode answers with
// a structured JSON error body whose code distinguishes structural damage
// from truncation from order violations — table-driven, per the taxonomy in
// PROTOCOL.md.
func TestStreamErrorTaxonomy(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer shutdownOrFail(t, srv)

	wire := func(entries ...record.Entry) []byte {
		var l record.Log
		for _, e := range entries {
			l.Append(e)
		}
		var buf bytes.Buffer
		if err := l.EncodeTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := wire(
		record.Entry{Clock: 5, Thread: 0, Instr: 9},
		record.Entry{Clock: 9, Thread: 1, Instr: 3},
	)
	regressed := wire(
		record.Entry{Clock: 30000, Thread: 0, Instr: 1},
		record.Entry{Clock: 100, Thread: 0, Instr: 1}, // delta 36636 > window
	)
	badThread := wire(record.Entry{Clock: 1, Thread: 63, Instr: 1})
	trailing := append(append([]byte{}, valid...), 0x00)

	cases := []struct {
		name       string
		query      string
		body       []byte
		wantStatus int
		wantCode   string
	}{
		{"bad magic", "app=fft", []byte("WAT?xxxxxxxxxxxxyyyyyyyy"), http.StatusBadRequest, codeBadFormat},
		{"truncated header", "app=fft", []byte("CORD"), http.StatusBadRequest, codeTruncated},
		{"truncated entries", "app=fft", valid[:len(valid)-5], http.StatusBadRequest, codeTruncated},
		{"trailing bytes", "app=fft", trailing, http.StatusBadRequest, codeBadFormat},
		{"clock regression", "app=fft&threads=4", regressed, http.StatusUnprocessableEntity, codeOrderViolation},
		{"thread out of range", "app=fft&threads=4", badThread, http.StatusUnprocessableEntity, codeOrderViolation},
		{"unknown app", "app=nope", valid, http.StatusBadRequest, codeBadRequest},
		{"bad verify flag", "app=fft&verify=maybe", valid, http.StatusBadRequest, codeBadRequest},
		{"bad seed", "app=fft&seed=x", valid, http.StatusBadRequest, codeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postStream(t, ts.URL, tc.query, tc.body, 5)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, body)
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Fatalf("error body is not structured JSON: %v (%s)", err, body)
			}
			if eb.Schema != SchemaVersion || eb.Code != tc.wantCode || eb.Error == "" {
				t.Fatalf("error body %+v, want schema %d code %q", eb, SchemaVersion, tc.wantCode)
			}
		})
	}
}

// TestStreamDrainingRejects: streams respect the drain state like every
// other session type, and Shutdown waits for in-flight streams.
func TestStreamDrainingRejects(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	logBytes := recordFixture(t, 3)
	pr, pw := io.Pipe()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/stream?app=fft&seed=3&threads=4&verify=0", pr)
	done := make(chan int, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	if _, err := pw.Write(logBytes[:20]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stream to start", func() bool { return srv.Metrics().Streams.Started == 1 })

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

	resp, body := postStream(t, ts.URL, "app=fft&seed=3&threads=4", logBytes, 4096)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stream during drain: status %d (body %s)", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Code != codeDraining {
		t.Fatalf("drain body: %s, want code %q", body, codeDraining)
	}

	// The in-flight stream still completes: accepted work is never dropped.
	if _, err := pw.Write(logBytes[20:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if st := <-done; st != http.StatusOK {
		t.Fatalf("in-flight stream finished with status %d during drain", st)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if m := srv.Metrics(); m.Streams.Completed != 1 || m.Streams.RejectedDraining != 1 {
		t.Fatalf("counters: %+v", m.Streams)
	}
}

// deadlineRecorder is a ResponseRecorder that accepts read deadlines, so the
// stream handler can run in-process, without a socket.
type deadlineRecorder struct{ *httptest.ResponseRecorder }

func (deadlineRecorder) SetReadDeadline(time.Time) error { return nil }

// sizedReader returns its bytes in Reads of exactly sizes[0], sizes[1], ...
// (cycling; the last Read may be short), so the handler's chunk boundaries
// are the ones the test chose. Over a socket the transport may merge them.
type sizedReader struct {
	b     []byte
	sizes []int
	k     int
}

func (r *sizedReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), len(r.b), r.sizes[r.k%len(r.sizes)])
	r.k++
	n = copy(p, r.b[:n])
	r.b = r.b[n:]
	return n, nil
}

// serveStreamInProcess runs one POST /v1/stream session through srv's
// handler on the calling goroutine, delivering body in Reads of the given
// sizes, and returns the status and response body.
func serveStreamInProcess(srv *Server, query string, body []byte, sizes ...int) (int, []byte) {
	r := httptest.NewRequest(http.MethodPost, "/v1/stream?"+query,
		io.NopCloser(&sizedReader{b: body, sizes: sizes}))
	w := deadlineRecorder{httptest.NewRecorder()}
	srv.ServeHTTP(w, r)
	return w.Code, w.Body.Bytes()
}

// TestHashLogMatchesIngest: the served log_hash, hashed per chunk over the
// wire bytes, equals the one-shot hashLog on every prefix length and at
// chunk sizes that split the header and entries every way, so LogMatch
// cannot drift between the two sides. The full log's hash is pinned, so the
// §4.4 value itself cannot drift either. A body that continues past its
// declared count, or stops short of it, never reaches a summary.
func TestHashLogMatchesIngest(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer shutdownOrFail(t, srv)
	chunks := []int{1, 7, 8, 9, 15, 16, 17, 4096}

	var l record.Log
	var body []byte
	for i := 0; i < 100; i++ {
		l.Append(record.Entry{Clock: clock.Scalar(i * 5), Thread: uint16(i % 4), Instr: uint32(i)})
		var buf bytes.Buffer
		if err := l.EncodeTo(&buf); err != nil {
			t.Fatal(err)
		}
		body = buf.Bytes()
		want := fmt.Sprintf("%016x", hashLog(&l))
		for _, chunk := range chunks {
			status, b := serveStreamInProcess(srv, "app=fft&threads=4&verify=0", body, chunk)
			var sr StreamResponse
			if status != http.StatusOK || json.Unmarshal(b, &sr) != nil {
				t.Fatalf("prefix %d, chunk %d: status %d, body %s", i+1, chunk, status, b)
			}
			if sr.LogHash != want || sr.Frames != uint64(i+1) {
				t.Fatalf("prefix %d, chunk %d: served hash %s over %d frames, hashLog %s",
					i+1, chunk, sr.LogHash, sr.Frames, want)
			}
		}
	}

	if got := fmt.Sprintf("%016x", hashLog(&l)); got != "f9a4ee1f8ac079e5" {
		t.Fatalf("hashLog of the 100-entry log = %s, want f9a4ee1f8ac079e5", got)
	}

	over := append(append([]byte{}, body...), body[record.HeaderBytes:record.HeaderBytes+record.EntryBytes]...)
	for _, tc := range []struct {
		name string
		body []byte
		code string
	}{
		{"past the declared count", over, codeBadFormat},
		{"truncated", body[:len(body)-3], codeTruncated},
	} {
		for _, chunk := range chunks {
			status, b := serveStreamInProcess(srv, "app=fft&threads=4&verify=0", tc.body, chunk)
			var eb errorBody
			if status != http.StatusBadRequest || json.Unmarshal(b, &eb) != nil || eb.Code != tc.code {
				t.Fatalf("%s, chunk %d: status %d, body %s; want 400 %s", tc.name, chunk, status, b, tc.code)
			}
		}
	}
}

// TestStreamChunkAllocatesNothing: once warmed up, a session's per-chunk
// work allocates nothing, offline and online at duty=0: the decode into the
// reused entry buffer, the sink's one Append of the chunk, at duty=0 the
// Discard of what became final, and the hash. The log's four threads
// advance in step, so the epoch stream's pending window stays bounded.
func TestStreamChunkAllocatesNothing(t *testing.T) {
	const threads, entries = 4, 1 << 18
	var l record.Log
	for i := 0; i < entries; i++ {
		l.Append(record.Entry{Clock: clock.Scalar(4*(i/threads) + i%3), Thread: uint16(i % threads), Instr: uint32(i)})
	}
	var buf bytes.Buffer
	if err := l.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	for _, online := range []bool{false, true} {
		var clocks unwrapper = record.NewUnwrapper(threads)
		var o *onlineSession
		if online {
			o = startOnline(streamOptions{req: DetectRequest{Threads: threads}, online: true, duty: 0})
			defer o.stop()
			clocks = o.es
		}
		ing := newStreamIngest(clocks, threads, entries)
		dec := record.NewStreamDecoder()
		ents := make([]record.Entry, 0, streamReadChunk/record.EntryBytes)
		off := 0
		chunk := func() {
			p := body[off : off+streamReadChunk]
			off += len(p)
			es, err := dec.Decode(p, ents[:0])
			if err == nil {
				err = ing.ingest(es)
			}
			if err != nil {
				t.Fatal(err)
			}
			if o != nil {
				o.release()
			}
			ing.hash.Write(p)
		}
		for off < len(body)/4 {
			chunk()
		}
		if n := testing.AllocsPerRun(len(body)/2/streamReadChunk, chunk); n != 0 {
			t.Fatalf("online %v: %v allocs per chunk, want 0", online, n)
		}
		if online && o.es.Pending() > 2*threads {
			t.Fatalf("duty=0: %d epochs pending after a Discard, want the window bounded", o.es.Pending())
		}
	}
}
