package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"cord/internal/clock"
	"cord/internal/record"
	"cord/internal/replay"
	"cord/internal/workload"
)

// racyFixture records a real racy fft run (injection removes one sync
// instance) and returns the encoded log plus the per-thread injection
// identity the recording reported — what a detect=online client passes back
// as inject_thread/inject_nth so the replay removes the same instance.
func racyFixture(t *testing.T, seed, inject uint64) (logBytes []byte, injThread int, injNth uint64) {
	t.Helper()
	app, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	out, err := replay.RecordAndReplay(app.Build(1, 4), replay.Options{Seed: seed, Jitter: 7, InjectSkip: inject})
	if err != nil || !out.Match {
		t.Fatalf("recording racy fixture: err=%v match=%v (%s)", err, out.Match, out.Mismatch)
	}
	if out.Recorded.InjectedThread < 0 {
		t.Fatal("injection did not fire; fixture is not racy")
	}
	var buf bytes.Buffer
	if err := out.Log.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), out.Recorded.InjectedThread, out.Recorded.InjectedThreadNth
}

// splitFrames separates a detect=online response body into its compact
// progress/error frame lines and the indented summary document (which starts
// at the first line that is exactly "{").
func splitFrames(t *testing.T, body []byte) (frames []progressFrame, summary []byte) {
	t.Helper()
	for len(body) > 0 {
		nl := bytes.IndexByte(body, '\n')
		if nl < 0 {
			t.Fatalf("unterminated line in body: %q", body)
		}
		line := body[:nl]
		if string(line) == "{" {
			return frames, body
		}
		if bytes.HasPrefix(line, []byte(`{"frame":"progress"`)) {
			var f progressFrame
			if err := json.Unmarshal(line, &f); err != nil {
				t.Fatalf("bad progress frame %q: %v", line, err)
			}
			frames = append(frames, f)
		} else if bytes.HasPrefix(line, []byte(`{"frame":"error"`)) {
			t.Fatalf("stream failed mid-flight: %s", line)
		} else {
			t.Fatalf("unexpected line before summary: %q", line)
		}
		body = body[nl+1:]
	}
	t.Fatal("no summary document in body")
	return nil, nil
}

// TestStreamOnlineByteIdentity is the tentpole acceptance criterion: at
// detect=online&duty=100 the end-of-stream summary's detect block stays
// byte-identical to the one-shot /v1/detect response, the online detector
// reproduces the recorded race list exactly, and repeated streams produce
// byte-identical summaries (progress frames are timing diagnostics and are
// excluded).
func TestStreamOnlineByteIdentity(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer shutdownOrFail(t, srv)

	logBytes, injTh, injNth := racyFixture(t, 1, 2)
	query := "app=fft&seed=1&threads=4&inject=2&detect=online&duty=100" +
		"&inject_thread=" + itoa(injTh) + "&inject_nth=" + itoa(int(injNth))
	resp, body := postStream(t, ts.URL, query, logBytes, 13)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d, body %s", resp.StatusCode, body)
	}
	frames, summary := splitFrames(t, body)
	var sr StreamResponse
	if err := json.Unmarshal(summary, &sr); err != nil {
		t.Fatalf("decoding summary: %v", err)
	}
	if sr.Online == nil {
		t.Fatal("detect=online summary missing the online block")
	}
	if !sr.Online.Completed || sr.Online.Divergence != "" {
		t.Fatalf("online replay did not complete: %+v", sr.Online)
	}
	if sr.Online.Duty != 100 || sr.Online.CoveragePct != 100 ||
		sr.Online.EpochsObserved != sr.Online.EpochsTotal || sr.Online.EpochsTotal == 0 {
		t.Fatalf("duty=100 coverage accounting wrong: %+v", sr.Online)
	}
	if !sr.Verified || !sr.LogMatch {
		t.Fatalf("verification verdict: verified=%v log_match=%v", sr.Verified, sr.LogMatch)
	}

	// The online race list must equal the authoritative re-execution's.
	if sr.Detect == nil || len(sr.Detect.Races) == 0 {
		t.Fatal("verified racy run reported no detect races")
	}
	if len(sr.Online.Races) != len(sr.Detect.Races) || sr.Online.RacesSoFar != len(sr.Detect.Races) {
		t.Fatalf("online found %d races (so_far %d), detect found %d",
			len(sr.Online.Races), sr.Online.RacesSoFar, len(sr.Detect.Races))
	}
	for i := range sr.Online.Races {
		if sr.Online.Races[i] != sr.Detect.Races[i] {
			t.Fatalf("race %d differs:\nonline %s\ndetect %s", i, sr.Online.Races[i], sr.Detect.Races[i])
		}
	}
	// Races shipped in progress frames are a prefix of the final list.
	var shipped []string
	for _, f := range frames {
		shipped = append(shipped, f.NewRaces...)
	}
	if len(shipped) > len(sr.Online.Races) {
		t.Fatalf("frames shipped %d races, summary has %d", len(shipped), len(sr.Online.Races))
	}
	for i := range shipped {
		if shipped[i] != sr.Online.Races[i] {
			t.Fatalf("frame race %d is not a prefix of the summary list", i)
		}
	}

	// Detect block byte identity with one-shot /v1/detect.
	dresp, dbody := postDetect(t, ts.URL, DetectRequest{App: "fft", Seed: 1, Threads: 4, Inject: 2})
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("one-shot detect status %d", dresp.StatusCode)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(summary, &raw); err != nil {
		t.Fatal(err)
	}
	detectBlock := append(deindent(raw["detect"]), '\n')
	if !bytes.Equal(detectBlock, dbody) {
		t.Fatalf("stream detect block differs from one-shot response\nstream: %s\noneshot: %s", detectBlock, dbody)
	}

	// Determinism: a second identical stream yields a byte-identical summary.
	resp2, body2 := postStream(t, ts.URL, query, logBytes, 31)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat stream status %d", resp2.StatusCode)
	}
	_, summary2 := splitFrames(t, body2)
	if !bytes.Equal(summary, summary2) {
		t.Fatalf("online summaries not byte-identical across identical streams\nfirst: %s\nsecond: %s", summary, summary2)
	}
}

func itoa(n int) string { return strconv.Itoa(n) }

// TestStreamOnlineMidStreamRaces pins the point of the feature: with a racy
// recording dribbled in slowly, the client reads a progress frame announcing
// races strictly before it has finished uploading the log.
func TestStreamOnlineMidStreamRaces(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer shutdownOrFail(t, srv)

	logBytes, injTh, injNth := racyFixture(t, 1, 2)
	query := "app=fft&seed=1&threads=4&inject=2&detect=online&duty=100&verify=0" +
		"&inject_thread=" + itoa(injTh) + "&inject_nth=" + itoa(int(injNth))

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/stream?"+query, pr)
	if err != nil {
		t.Fatal(err)
	}

	raceSeen := make(chan struct{})   // closed when a frame reports races
	clientDone := make(chan []string) // the frame-shipped races, in order
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("stream request: %v", err)
			close(raceSeen)
			clientDone <- nil
			return
		}
		defer resp.Body.Close()
		var shipped []string
		signaled := false
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, `{"frame":"progress"`) {
				break // summary reached; drain and finish
			}
			var f progressFrame
			if err := json.Unmarshal([]byte(line), &f); err != nil {
				t.Errorf("bad frame %q: %v", line, err)
				break
			}
			shipped = append(shipped, f.NewRaces...)
			if f.RacesSoFar > 0 && !signaled {
				signaled = true
				close(raceSeen)
			}
		}
		for sc.Scan() {
		}
		if !signaled {
			close(raceSeen)
		}
		clientDone <- shipped
	}()

	// Dribble entries one at a time; each write is a chunk boundary the
	// server may emit a frame at. Hold back a tail so "mid-stream" is real.
	tail := 40 * record.EntryBytes
	head := logBytes[:len(logBytes)-tail]
	if _, err := pw.Write(head[:record.HeaderBytes]); err != nil {
		t.Fatal(err)
	}
	sawMidStream := false
	for off := record.HeaderBytes; off < len(head); off += record.EntryBytes {
		if _, err := pw.Write(head[off : off+record.EntryBytes]); err != nil {
			t.Fatal(err)
		}
		select {
		case <-raceSeen:
			sawMidStream = true
		case <-time.After(2 * time.Millisecond):
		}
		if sawMidStream {
			break
		}
	}
	if !sawMidStream {
		// Give the engine a moment to catch up, then force one more boundary.
		deadline := time.Now().Add(10 * time.Second)
		for off := 0; !sawMidStream && time.Now().Before(deadline); {
			_ = off
			if _, err := pw.Write(logBytes[len(logBytes)-tail : len(logBytes)-tail+record.EntryBytes]); err != nil {
				t.Fatal(err)
			}
			tail -= record.EntryBytes
			if tail == 0 {
				break
			}
			select {
			case <-raceSeen:
				sawMidStream = true
			case <-time.After(50 * time.Millisecond):
			}
		}
	}
	if !sawMidStream {
		t.Fatal("no progress frame reported races before the upload finished")
	}
	if _, err := pw.Write(logBytes[len(logBytes)-tail:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()

	shipped := <-clientDone
	if len(shipped) == 0 {
		t.Fatal("client never received race strings in progress frames")
	}
}

// TestStreamOnlineDutyCoverage: duty=0 skips the replay entirely (pure
// ingest with epoch accounting), a mid duty observes a matching fraction of
// epochs, the /metrics online counters add up, and a session without duty=
// runs at full coverage.
func TestStreamOnlineDutyCoverage(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer shutdownOrFail(t, srv)

	logBytes, injTh, injNth := racyFixture(t, 1, 2)
	base := "app=fft&seed=1&threads=4&inject=2&detect=online&verify=0" +
		"&inject_thread=" + itoa(injTh) + "&inject_nth=" + itoa(int(injNth))

	get := func(query string) *OnlineSummary {
		t.Helper()
		resp, body := postStream(t, ts.URL, query, logBytes, 4096)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream status %d, body %s", resp.StatusCode, body)
		}
		_, summary := splitFrames(t, body)
		var sr StreamResponse
		if err := json.Unmarshal(summary, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Online == nil {
			t.Fatal("missing online block")
		}
		return sr.Online
	}

	zero := get(base + "&duty=0")
	if !zero.Completed || zero.EpochsObserved != 0 || zero.RacesSoFar != 0 || zero.CoveragePct != 0 {
		t.Fatalf("duty=0 block: %+v", zero)
	}
	if zero.EpochsTotal == 0 {
		t.Fatal("duty=0 lost the epoch accounting")
	}

	full := get(base + "&duty=100")
	if full.EpochsTotal == 0 || full.EpochsObserved != full.EpochsTotal || full.RacesSoFar == 0 {
		t.Fatalf("duty=100 block: %+v", full)
	}

	half := get(base + "&duty=50")
	if half.EpochsTotal != full.EpochsTotal {
		t.Fatalf("epoch totals differ across duties: %d vs %d", half.EpochsTotal, full.EpochsTotal)
	}
	if half.CoveragePct < 25 || half.CoveragePct > 75 {
		t.Fatalf("duty=50 coverage %.1f%%, want roughly half", half.CoveragePct)
	}
	if half.RacesSoFar > full.RacesSoFar {
		t.Fatalf("half coverage found more races (%d) than full (%d)", half.RacesSoFar, full.RacesSoFar)
	}

	m := srv.Metrics()
	if m.Streams.OnlineSessions != 3 {
		t.Fatalf("online_sessions = %d, want 3", m.Streams.OnlineSessions)
	}
	wantTotal := zero.EpochsTotal + full.EpochsTotal + half.EpochsTotal
	if m.Streams.OnlineEpochsTotal != wantTotal {
		t.Fatalf("online_epochs_total = %d, want %d", m.Streams.OnlineEpochsTotal, wantTotal)
	}
	wantObs := full.EpochsObserved + half.EpochsObserved
	if m.Streams.OnlineEpochsObserved != wantObs {
		t.Fatalf("online_epochs_observed = %d, want %d", m.Streams.OnlineEpochsObserved, wantObs)
	}
	wantRaces := uint64(full.RacesSoFar + half.RacesSoFar)
	if m.Streams.OnlineRaces != wantRaces {
		t.Fatalf("online_races = %d, want %d", m.Streams.OnlineRaces, wantRaces)
	}
	if m.Streams.OnlineDivergences != 0 {
		t.Fatalf("online_divergences = %d, want 0", m.Streams.OnlineDivergences)
	}

	def := get(base)
	if def.Duty != 100 || def.CoveragePct != 100 || !reflect.DeepEqual(def, full) {
		t.Fatalf("block without duty= %+v, want the duty=100 block %+v", def, full)
	}
}

// TestStreamOnlineParamTaxonomy: the new query parameters reject out-of-range
// and inconsistent values with 400 / bad_request (PROTOCOL.md §5).
func TestStreamOnlineParamTaxonomy(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer shutdownOrFail(t, srv)

	cases := map[string]string{
		"duty without online":   "app=fft&seed=1&threads=4&duty=50",
		"duty above range":      "app=fft&seed=1&threads=4&detect=online&duty=101",
		"duty below range":      "app=fft&seed=1&threads=4&detect=online&duty=-1",
		"duty unparseable":      "app=fft&seed=1&threads=4&detect=online&duty=half",
		"unknown detect mode":   "app=fft&seed=1&threads=4&detect=offline",
		"inject_thread offline": "app=fft&seed=1&threads=4&inject_thread=0",
		"inject_thread range":   "app=fft&seed=1&threads=4&detect=online&inject_thread=4",
		"inject_nth zero":       "app=fft&seed=1&threads=4&detect=online&inject_thread=1&inject_nth=0",
	}
	for name, query := range cases {
		resp, body := postStream(t, ts.URL, query, nil, 64)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", name, resp.StatusCode, body)
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Code != codeBadRequest {
			t.Errorf("%s: body %s (err %v), want code %q", name, body, err, codeBadRequest)
		}
	}
}

// TestStreamOnlineWrapFixture is the clock-wrap case through the online
// path: a synthetic log whose per-thread clocks cross the 16-bit boundary
// must produce identical shard summaries (the unwrap arithmetic) and
// log_hash whether it is ingested offline or online, in 16-byte chunks or as
// one whole-log chunk. The synthetic log does not correspond to any real
// run, so the online replay reports divergence — a 200 verdict, never an
// error.
func TestStreamOnlineWrapFixture(t *testing.T) {
	const threads = 4
	l := &record.Log{}
	start := 1<<16 - 200
	for i := 0; i < 6000; i++ {
		th := i % threads
		l.Append(record.Entry{
			Clock:  clock.Scalar(uint16(start + (i/threads)*13 + th)),
			Thread: uint16(th),
			Instr:  uint32(1 + i%9),
		})
	}
	var buf bytes.Buffer
	if err := l.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	logBytes := buf.Bytes()

	srv := New(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer shutdownOrFail(t, srv)

	shards := func(query string, chunk int) ([]ShardSummary, string, *OnlineSummary) {
		t.Helper()
		resp, body := postStream(t, ts.URL, query, logBytes, chunk)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream status %d, body %s", resp.StatusCode, body)
		}
		_, summary := splitFrames(t, body)
		var sr StreamResponse
		if err := json.Unmarshal(summary, &sr); err != nil {
			t.Fatal(err)
		}
		return sr.Shards, sr.LogHash, sr.Online
	}

	offline, offHash, _ := shards("app=fft&seed=1&threads=4&verify=0", 4096)
	onSmall, smallHash, sum1 := shards("app=fft&seed=1&threads=4&verify=0&detect=online&duty=100", 16)
	onWhole, wholeHash, sum2 := shards("app=fft&seed=1&threads=4&verify=0&detect=online&duty=100", len(logBytes))

	if offHash != smallHash || offHash != wholeHash {
		t.Fatalf("log hashes differ: offline %s online 16-byte %s online whole-log %s", offHash, smallHash, wholeHash)
	}
	for _, on := range [][]ShardSummary{onSmall, onWhole} {
		if len(on) != len(offline) {
			t.Fatalf("shard count differs: %d vs %d", len(on), len(offline))
		}
		for i := range on {
			if on[i] != offline[i] {
				t.Fatalf("shard %d differs across ingest paths:\noffline %+v\nonline  %+v", i, offline[i], on[i])
			}
		}
	}
	// The wrap really happened: unwrapped last times exceed 16 bits.
	wrapped := false
	for _, sh := range offline {
		if sh.LastTime >= 1<<16 {
			wrapped = true
		}
	}
	if !wrapped {
		t.Fatal("fixture never crossed the 16-bit boundary; the test proves nothing")
	}
	for _, sum := range []*OnlineSummary{sum1, sum2} {
		if sum == nil || sum.Completed || sum.Divergence == "" {
			t.Fatalf("synthetic log replay should report divergence, got %+v", sum)
		}
	}
	if srv.Metrics().Streams.OnlineDivergences != 2 {
		t.Fatalf("online_divergences = %d, want 2", srv.Metrics().Streams.OnlineDivergences)
	}
}

// TestStreamOnlineCancelMidStream: a client vanishing mid-online-stream
// cancels the replay engine and leaks no goroutines.
func TestStreamOnlineCancelMidStream(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	before := runtime.NumGoroutine()
	logBytes, injTh, injNth := racyFixture(t, 1, 2)
	query := "app=fft&seed=1&threads=4&inject=2&detect=online&duty=100&verify=0" +
		"&inject_thread=" + itoa(injTh) + "&inject_nth=" + itoa(int(injNth))

	pr, pw := io.Pipe()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/stream?"+query, pr)
	done := make(chan struct{})
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		close(done)
	}()
	if _, err := pw.Write(logBytes[:len(logBytes)/2]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the engine start consuming
	pw.CloseWithError(io.ErrClosedPipe)
	<-done

	shutdownOrFail(t, srv)
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	waitFor(t, "goroutines to drain", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before
	})
}

// TestStreamRetryAfterP50: the stream-slot 429's Retry-After hint tracks the
// observed p50 stream latency instead of the historical hardcoded 1s.
func TestStreamRetryAfterP50(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer shutdownOrFail(t, srv)

	if got := srv.retryAfter("/v1/stream"); got != "1" {
		t.Fatalf("cold server Retry-After = %s, want 1", got)
	}
	for i := 0; i < 5; i++ {
		srv.m.observe("/v1/stream", 4200*time.Millisecond)
	}
	if got := srv.retryAfter("/v1/stream"); got != "5" {
		t.Fatalf("p50~5s Retry-After = %s, want 5 (bucket bound)", got)
	}
	for i := 0; i < 50; i++ {
		srv.m.observe("/v1/stream", 2*time.Minute)
	}
	if got := srv.retryAfter("/v1/stream"); got != "30" {
		t.Fatalf("overflow p50 Retry-After = %s, want clamp to 30", got)
	}
	srv2 := New(Config{Workers: 1})
	defer shutdownOrFail(t, srv2)
	for i := 0; i < 9; i++ {
		srv2.m.observe("/v1/stream", 3*time.Millisecond)
	}
	if got := srv2.retryAfter("/v1/stream"); got != "1" {
		t.Fatalf("fast-stream Retry-After = %s, want floor 1", got)
	}
}

// laggingLog encodes an order log of n entries over four threads whose
// clocks start just below the 16-bit wrap: threads 0-2 speak at random and
// advance by 1..8, while thread 3 speaks only every 1000th entry, so the
// watermark lags it and thousands of epochs stay pending.
func laggingLog(t *testing.T, n int) ([]record.Entry, []byte) {
	t.Helper()
	rng := rand.New(rand.NewPCG(25, 4))
	clocks := []clock.Scalar{65000, 65010, 65020, 65030}
	var l record.Log
	for k := 0; k < n; k++ {
		th := rng.IntN(3)
		if k%1000 == 999 {
			th = 3
		}
		l.Append(record.Entry{Clock: clocks[th], Thread: uint16(th), Instr: uint32(1 + rng.IntN(64))})
		if th == 3 {
			clocks[th] += clock.Scalar(1 + rng.IntN(3000))
		} else {
			clocks[th] += clock.Scalar(1 + rng.IntN(8))
		}
	}
	var buf bytes.Buffer
	if err := l.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	return l.Entries(), buf.Bytes()
}

// TestStreamDutyZeroProgressEpochs: a duty=0 session counts released epochs
// without building them, and every progress frame's epochs must still be
// the count Release hands out over the entries ingested so far. The log is
// 4 MiB with a lagging thread, sent in 1 MiB chunks; the summary's
// epochs_total counts every entry.
//
// Per chunk the frame quota is checked once, yet an order violation before
// the quota boundary still answers 422, and one on the boundary 413, on the
// offline and the duty=0 sink alike.
func TestStreamDutyZeroProgressEpochs(t *testing.T) {
	entries, body := laggingLog(t, 1<<19)
	srv := New(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer shutdownOrFail(t, srv)

	resp, out := postStream(t, ts.URL, "app=fft&threads=4&verify=0&detect=online&duty=0", body, 1<<20)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, out)
	}
	frames, summary := splitFrames(t, out)
	if len(frames) < 3 {
		t.Fatalf("%d progress frames, want one per MiB", len(frames))
	}
	oracle := record.NewEpochStream(4)
	var ingested, released uint64
	for _, f := range frames {
		for ; ingested < f.Frames; ingested++ {
			if err := oracle.Append(entries[ingested]); err != nil {
				t.Fatal(err)
			}
		}
		released += uint64(len(oracle.Release(nil)))
		if f.Epochs != released {
			t.Fatalf("frame at %d entries: epochs %d, Release oracle %d", f.Frames, f.Epochs, released)
		}
		if oracle.Pending() == 0 {
			t.Fatalf("frame at %d entries: nothing pending, so the thread does not lag", f.Frames)
		}
	}
	var sr StreamResponse
	if err := json.Unmarshal(summary, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Online == nil || sr.Online.EpochsTotal != uint64(len(entries)) {
		t.Fatalf("online block %+v, want %d epochs", sr.Online, len(entries))
	}

	const quota = 1000
	quotaSrv := New(Config{Workers: 1, QueueDepth: 4, MaxStreamFrames: quota})
	defer shutdownOrFail(t, quotaSrv)
	for _, tc := range []struct {
		bad        int
		status     int
		code, text string
	}{
		{quota - 1, http.StatusUnprocessableEntity, codeOrderViolation, "entry 999 names thread"},
		{quota, http.StatusRequestEntityTooLarge, codeQuotaExceeded, "frame quota (1000 frames) exhausted"},
	} {
		// 4000 entries: the whole log is the first 32 KiB chunk.
		bad := genStreamLog(t, 7, 4, 4000, 0, tc.bad)
		for _, query := range []string{"app=fft&threads=4&verify=0", "app=fft&threads=4&verify=0&detect=online&duty=0"} {
			status, b := serveStreamInProcess(quotaSrv, query, bad, 32<<10)
			var eb errorBody
			if err := json.Unmarshal(b, &eb); err != nil {
				t.Fatalf("%s, bad entry %d: %v in %s", query, tc.bad, err, b)
			}
			if status != tc.status || eb.Code != tc.code || !strings.Contains(eb.Error, tc.text) {
				t.Errorf("%s, bad entry %d: %d %q %q, want %d %q containing %q",
					query, tc.bad, status, eb.Code, eb.Error, tc.status, tc.code, tc.text)
			}
		}
	}
}
