package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"sort"
	"strings"
	"testing"

	"cord/internal/baseline"
	"cord/internal/clock"
	"cord/internal/core"
	"cord/internal/experiment"
	"cord/internal/record"
	"cord/internal/sim"
	"cord/internal/trace"
	"cord/internal/workload"
)

// FuzzDetectRequest drives the full request-admission path of POST
// /v1/detect — strict JSON decoding, defaulting, validation — with arbitrary
// bodies. The invariants: no panic, and everything that survives Validate is
// genuinely in-domain (the simulation layer never sees out-of-range
// parameters).
func FuzzDetectRequest(f *testing.F) {
	f.Add(`{"app":"fft","seed":1}`)
	f.Add(`{"app":"lu","seed":18446744073709551615,"scale":2,"threads":8,"d":256,"inject":3}`)
	f.Add(`{"app":"","seed":-1}`)
	f.Add(`{"app":"fft","unknown_knob":true}`)
	f.Add(`{"app":"fft","scale":1e9}`)
	f.Add(`{}`)
	f.Add(`[]`)
	f.Add(`{"app":"fft"`)
	f.Fuzz(func(t *testing.T, body string) {
		r, err := http.NewRequest(http.MethodPost, "/v1/detect", strings.NewReader(body))
		if err != nil {
			t.Skip()
		}
		var req DetectRequest
		if err := decodeJSONBody(r, &req); err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("decode failure %v does not wrap ErrBadRequest", err)
			}
			return
		}
		req.ApplyDefaults()
		if err := req.Validate(); err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("validation failure %v does not wrap ErrBadRequest", err)
			}
			return
		}
		if req.Scale < 1 || req.Scale > MaxScale || req.Threads < 1 || req.Threads > MaxThreads || req.D < 1 {
			t.Fatalf("Validate accepted out-of-domain request %+v", req)
		}
	})
}

// FuzzReplayParams drives the POST /v1/replay admission path with arbitrary
// query strings and order-log bodies: query parsing, validation, binary log
// decoding, and schedule extraction. The handler must classify every
// malformed input as a client error — never panic, never let an out-of-domain
// request reach the engine.
func FuzzReplayParams(f *testing.F) {
	var l record.Log
	l.Append(record.Entry{Clock: 1, Thread: 0, Instr: 7})
	var goodLog bytes.Buffer
	if err := l.EncodeTo(&goodLog); err != nil {
		f.Fatal(err)
	}
	f.Add("app=fft&seed=1&threads=4", goodLog.Bytes())
	f.Add("app=fft&seed=1&inject_thread=2&inject_nth=5", goodLog.Bytes())
	f.Add("app=fft&seed=1&inject_nth=5", goodLog.Bytes())
	f.Add("app=nosuch&seed=x", []byte{})
	f.Add("seed=18446744073709551616", []byte("CORD"))
	f.Add("threads=-1&inject_thread=99", goodLog.Bytes())
	f.Add("", []byte{})
	f.Fuzz(func(t *testing.T, query string, logBytes []byte) {
		req, err := parseReplayQuery(&http.Request{URL: &url.URL{RawQuery: query}})
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("query failure %v does not wrap ErrBadRequest", err)
			}
			return
		}
		req.ApplyDefaults()
		if err := req.Validate(); err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("validation failure %v does not wrap ErrBadRequest", err)
			}
			return
		}
		if req.Threads < 1 || req.Threads > MaxThreads || req.InjectThread >= req.Threads ||
			(req.InjectThread == -1) != (req.InjectNth == 0) {
			t.Fatalf("Validate accepted out-of-domain request %+v", req)
		}
		log, err := record.DecodeFrom(bytes.NewReader(logBytes))
		if err != nil {
			return // malformed log: rejected before any simulation
		}
		// Schedule extraction must stay panic-free on any decoded log.
		if _, err := log.Schedule(req.Threads); err != nil {
			return
		}
	})
}

// FuzzStreamIngest is differential over POST /v1/stream ingest: a generated
// order log, cut at fuzzer-chosen chunk boundaries, must get the same answer
// at every chunking, offline (verify=0) and online at duty 0, and that answer
// must match a one-shot oracle built from record.DecodeFrom, Log.Schedule,
// hashLog and shard sums over the decoded log. On success it compares
// frames, log_bytes, log_hash, the shards and online.epochs_total, and the
// whole body across chunkings; on failure the status, code and message.
//
// The generator draws 1–8 threads and per-thread clock deltas of 0, small,
// clock.Window and (when shape bit 1 is set) Window+1, starting near the
// 16-bit wrap when shape bit 0 is set; runs of Window deltas wrap too. bad <
// entries puts an out-of-range thread at that index, and quota > 0 lowers
// MaxStreamFrames to it. The seeds cover each outcome, including a 413 and a
// 422 on the same entry, where the quota wins, and violations in the middle
// of a chunk. Every session must also have folded exactly the entries ahead
// of its violation or quota boundary (frames_ingested).
func FuzzStreamIngest(f *testing.F) {
	const none = 1<<16 - 1
	f.Add(uint64(1), uint8(3), uint16(64), uint8(0), uint16(none), uint8(0), []byte{7})
	f.Add(uint64(2), uint8(0), uint16(40), uint8(1), uint16(none), uint8(0), []byte{1, 8, 9, 15, 16, 17})
	f.Add(uint64(3), uint8(7), uint16(300), uint8(1), uint16(none), uint8(0), []byte{40, 3})
	f.Add(uint64(4), uint8(3), uint16(200), uint8(3), uint16(none), uint8(0), []byte{13})
	f.Add(uint64(5), uint8(2), uint16(50), uint8(0), uint16(17), uint8(0), []byte{5})
	f.Add(uint64(6), uint8(3), uint16(64), uint8(0), uint16(none), uint8(9), []byte{11})
	f.Add(uint64(7), uint8(3), uint16(64), uint8(0), uint16(5), uint8(9), []byte{2})
	f.Add(uint64(8), uint8(3), uint16(64), uint8(0), uint16(30), uint8(9), []byte{0})
	f.Add(uint64(9), uint8(3), uint16(64), uint8(0), uint16(9), uint8(9), []byte{6})
	f.Add(uint64(10), uint8(3), uint16(9), uint8(0), uint16(none), uint8(9), []byte{4})
	f.Add(uint64(11), uint8(1), uint16(0), uint8(0), uint16(none), uint8(0), []byte{})
	// Order violations inside a chunk, after entries of the same chunk
	// folded: 40-byte chunks carry entries 5k-2 to 5k+2 (k >= 1), so entry
	// 10 is the third of its chunk; a quota past it leaves the 422 first.
	// Seed 13 regresses thread 0's clock at entry 26, the fourth of its chunk.
	f.Add(uint64(12), uint8(3), uint16(64), uint8(0), uint16(10), uint8(0), []byte{39})
	f.Add(uint64(12), uint8(3), uint16(64), uint8(0), uint16(10), uint8(12), []byte{39})
	f.Add(uint64(13), uint8(1), uint16(100), uint8(2), uint16(none), uint8(0), []byte{39})
	f.Fuzz(func(t *testing.T, seed uint64, threads uint8, n uint16, shape uint8, bad uint16, quota uint8, cuts []byte) {
		th := 1 + int(threads%8)
		body := genStreamLog(t, seed, th, int(n%512), shape, int(bad))
		want := streamOracle(t, body, th, uint64(quota))

		srv := New(Config{Workers: 1, MaxStreamFrames: uint64(quota)})
		defer shutdownOrFail(t, srv)
		sizes := make([]int, 0, len(cuts))
		for _, c := range cuts {
			sizes = append(sizes, 1+int(c%40))
		}
		chunkings := [][]int{{len(body)}, {1}}
		if len(sizes) > 0 {
			chunkings = append(chunkings, sizes)
		}
		for _, online := range []bool{false, true} {
			query := fmt.Sprintf("app=fft&threads=%d&verify=0", th)
			if online {
				query += "&detect=online&duty=0"
			}
			var first []byte
			for _, ch := range chunkings {
				before := framesIngested(srv)
				status, b := serveStreamInProcess(srv, query, body, ch...)
				checkStreamOutcome(t, query, ch, status, b, want, online)
				if n := framesIngested(srv) - before; n != want.folded {
					t.Fatalf("%s at chunking %v: %d frames ingested, want %d", query, ch, n, want.folded)
				}
				if first == nil {
					first = b
				} else if !bytes.Equal(b, first) {
					t.Fatalf("%s: body at chunking %v differs from chunking %v:\n%s\nvs\n%s", query, ch, chunkings[0], b, first)
				}
			}
		}
	})
}

// genStreamLog draws an encoded order log for FuzzStreamIngest.
func genStreamLog(t *testing.T, seed uint64, threads, entries int, shape uint8, bad int) []byte {
	rng := rand.New(rand.NewPCG(seed, uint64(shape)))
	cur := make([]clock.Scalar, threads)
	for i := range cur {
		if shape&1 != 0 {
			cur[i] = clock.Scalar(1<<16 - 1 - rng.IntN(64))
		} else {
			cur[i] = clock.Scalar(rng.IntN(1000))
		}
	}
	deltas := []int{0, 1, 3, 250, clock.Window}
	if shape&2 != 0 {
		deltas = append(deltas, clock.Window+1)
	}
	started := make([]bool, threads)
	var l record.Log
	for i := 0; i < entries; i++ {
		tt := rng.IntN(threads)
		if started[tt] {
			cur[tt] += clock.Scalar(deltas[rng.IntN(len(deltas))])
		}
		started[tt] = true
		e := record.Entry{Clock: cur[tt], Thread: uint16(tt), Instr: rng.Uint32()}
		if i == bad {
			e.Thread = uint16(threads + rng.IntN(4))
		}
		l.Append(e)
	}
	var buf bytes.Buffer
	if err := l.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// streamOutcome is what one /v1/stream session must answer, and how many
// entries it must fold before it answers: every entry ahead of an order
// violation or the quota boundary, and all of them on success.
type streamOutcome struct {
	status    int
	code, msg string
	frames    uint64
	hash      string
	shards    []ShardSummary
	folded    uint64
}

// framesIngested reads the server's cumulative frames_ingested counter.
func framesIngested(s *Server) (n uint64) {
	s.m.bumpStream(func(c *StreamCounters) { n = c.FramesIngested })
	return n
}

// streamOracle computes the outcome of streaming body in one shot: the frame
// quota (when set) cuts the log before the schedule runs, so an order
// violation wins only when it comes first.
func streamOracle(t *testing.T, body []byte, threads int, quota uint64) streamOutcome {
	log, err := record.DecodeFrom(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("generated log does not decode: %v", err)
	}
	scheduled := log
	over := quota > 0 && uint64(log.Len()) > quota
	if over {
		scheduled = &record.Log{}
		for _, e := range log.Entries()[:quota] {
			scheduled.Append(e)
		}
	}
	epochs, err := scheduled.Schedule(threads)
	switch {
	case err != nil:
		// The offending entry is the first one a prefix of the log cannot
		// schedule; the ones before it fold.
		bad := sort.Search(scheduled.Len(), func(k int) bool {
			var prefix record.Log
			for _, e := range scheduled.Entries()[:k+1] {
				prefix.Append(e)
			}
			_, err := prefix.Schedule(threads)
			return err != nil
		})
		return streamOutcome{status: http.StatusUnprocessableEntity, code: codeOrderViolation, msg: err.Error(),
			folded: uint64(bad)}
	case over:
		return streamOutcome{status: http.StatusRequestEntityTooLarge, code: codeQuotaExceeded,
			msg: fmt.Sprintf("%v: frame quota (%d frames) exhausted", errStreamQuota, quota), folded: quota}
	}
	// Schedule order is per-thread stream order, so a thread's first epoch
	// here is its first entry.
	shards := make([]*ShardSummary, threads)
	for _, ep := range epochs {
		sh := shards[ep.Thread]
		if sh == nil {
			sh = &ShardSummary{Thread: ep.Thread, FirstTime: ep.Time}
			shards[ep.Thread] = sh
		}
		sh.Entries++
		sh.Instructions += uint64(ep.Instr)
		sh.LastTime = ep.Time
	}
	out := streamOutcome{status: http.StatusOK, frames: uint64(log.Len()), folded: uint64(log.Len()),
		hash: fmt.Sprintf("%016x", hashLog(log)), shards: []ShardSummary{}}
	for _, sh := range shards {
		if sh != nil {
			out.shards = append(out.shards, *sh)
		}
	}
	return out
}

// checkStreamOutcome compares one served session against the oracle.
func checkStreamOutcome(t *testing.T, query string, chunks []int, status int, body []byte, want streamOutcome, online bool) {
	t.Helper()
	if status != want.status {
		t.Fatalf("%s at chunking %v: status %d, want %d (body %s)", query, chunks, status, want.status, body)
	}
	if status != http.StatusOK {
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Code != want.code || eb.Error != want.msg {
			t.Fatalf("%s at chunking %v: error %s, want code %q error %q", query, chunks, body, want.code, want.msg)
		}
		return
	}
	var sr StreamResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("%s at chunking %v: summary is not JSON: %v", query, chunks, err)
	}
	if sr.Frames != want.frames || sr.LogBytes != want.frames*record.EntryBytes || sr.LogHash != want.hash ||
		!slices.Equal(sr.Shards, want.shards) {
		t.Fatalf("%s at chunking %v: served frames %d bytes %d hash %s shards %+v\nwant frames %d hash %s shards %+v",
			query, chunks, sr.Frames, sr.LogBytes, sr.LogHash, sr.Shards, want.frames, want.hash, want.shards)
	}
	if online && (sr.Online == nil || sr.Online.EpochsTotal != want.frames || !sr.Online.Completed) {
		t.Fatalf("%s at chunking %v: online block %+v, want %d epochs, completed", query, chunks, sr.Online, want.frames)
	}
	if !online && sr.Online != nil {
		t.Fatalf("%s at chunking %v: offline session reported an online block", query, chunks)
	}
}

// FuzzStreamParams drives the POST /v1/stream admission path — query
// parsing, defaults and validation — with arbitrary query strings. Every
// failure must wrap ErrBadRequest, and every accepted session must be in
// domain: a known app within the size bounds, a duty in [0, 100], a known
// detector family, an injection identity the engine can honour (and no
// inject_nth without an injected thread), and the online-only parameters
// only with detect=online.
func FuzzStreamParams(f *testing.F) {
	f.Add("app=fft&seed=1")
	f.Add("app=lu&seed=18446744073709551615&scale=2&threads=8&inject=3&d=256&verify=0")
	f.Add("app=fft&detect=online&duty=50&detector=fasttrack&inject_thread=2&inject_nth=5")
	f.Add("app=fft&threads=4&detect=online&inject_thread=9&inject_nth=1")
	f.Add("app=fft&detect=online&inject_thread=-1&inject_nth=3")
	f.Add("app=fft&detect=online&inject_thread=0")
	f.Add("app=fft&detect=online&inject_thread=x&inject_nth=y")
	f.Add("app=fft&duty=50&inject_nth=2")
	f.Add("app=fft&detect=online&duty=101&detector=djit")
	f.Add("app=nosuch&seed=18446744073709551616&verify=maybe")
	f.Add("app=fft&threads=65&detect=online")
	f.Add("")
	f.Fuzz(func(t *testing.T, query string) {
		o, err := parseStreamQuery(&http.Request{URL: &url.URL{RawQuery: query}})
		if err == nil {
			err = o.validate()
		}
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("%q: failure %v does not wrap ErrBadRequest", query, err)
			}
			return
		}
		if err := o.req.Validate(); err != nil {
			t.Fatalf("%q: accepted a detect run Validate rejects: %v", query, err)
		}
		if o.duty < 0 || o.duty > 100 || (o.detector != "cord" && o.detector != "fasttrack") {
			t.Fatalf("%q: accepted duty %d detector %q", query, o.duty, o.detector)
		}
		if !o.online {
			values, _ := url.ParseQuery(query)
			for _, name := range []string{"duty", "detector", "inject_thread", "inject_nth"} {
				if values.Get(name) != "" {
					t.Fatalf("%q: accepted %s without detect=online", query, name)
				}
			}
			return
		}
		r := o.replay
		if r.App != o.req.App || r.Seed != o.req.Seed || r.Scale != o.req.Scale || r.Threads != o.req.Threads {
			t.Fatalf("%q: online replay %+v is not the detect run %+v", query, r, o.req)
		}
		if r.InjectThread < -1 || r.InjectThread >= r.Threads || (r.InjectThread >= 0 && r.InjectNth < 1) ||
			(r.InjectThread == -1 && r.InjectNth != 0) {
			t.Fatalf("%q: accepted injection identity %d/%d at %d threads", query, r.InjectThread, r.InjectNth, r.Threads)
		}
	})
}

// FuzzOnlineReplayDetection checks online detection at duty=100 against
// replay-time detection (PROTOCOL.md §4.7): a run recorded by the one-shot
// detect session, streamed back with detect=online at fuzzer-chosen chunk
// sizes, must report exactly the races an in-process replay of the same
// log finds under the same detector family. The oracle replays the whole
// Log.Schedule through its own engine configuration; the two may both
// differ from the recording-time count, but never from each other.
//
// The seeds are runs where replay-time CORD differs from recording-time
// CORD (radix, cholesky, volrend) or matches it (fft), plus a FastTrack run.
func FuzzOnlineReplayDetection(f *testing.F) {
	appIdx := func(name string) uint8 {
		for i, a := range workload.All() {
			if a.Name == name {
				return uint8(i)
			}
		}
		f.Fatalf("no app %q", name)
		return 0
	}
	f.Add(appIdx("radix"), uint64(221732), uint16(3), false, uint16(4096))
	f.Add(appIdx("fft"), uint64(1), uint16(2), false, uint16(17))
	f.Add(appIdx("cholesky"), uint64(7919), uint16(60), false, uint16(1000))
	f.Add(appIdx("volrend"), uint64(39595), uint16(60), false, uint16(256))
	f.Add(appIdx("fft"), uint64(1), uint16(2), true, uint16(64))
	f.Fuzz(func(t *testing.T, app uint8, seed uint64, inject uint16, fasttrack bool, chunk uint16) {
		apps := workload.All()
		req := DetectRequest{App: apps[int(app)%len(apps)].Name, Seed: seed, Inject: uint64(inject % 512)}
		rec, log, err := runDetectSession(context.Background(), req)
		if err != nil {
			t.Fatalf("recording %+v: %v", req, err)
		}
		if rec.Result.Hung {
			t.Skip("the recording deadlocked: there is no run to replay")
		}
		var body bytes.Buffer
		if err := log.EncodeTo(&body); err != nil {
			t.Fatal(err)
		}

		// Oracle: the whole schedule replayed under a detector built here.
		var oracle onlineDetector = core.New(core.Config{Threads: rec.Threads, Procs: rec.Threads, D: rec.D})
		detector := "cord"
		if fasttrack {
			oracle, detector = baseline.NewFastTrack(baseline.FastTrackConfig{Threads: rec.Threads}), "fasttrack"
		}
		epochs, err := log.Schedule(rec.Threads)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := workload.ByName(rec.App)
		res, err := sim.New(sim.Config{
			Seed:            rec.Seed,
			ReplayEpochs:    epochs,
			InjectThread:    rec.Result.InjectedThread,
			InjectThreadNth: rec.Result.InjectedThreadNth,
			Observers:       []trace.Observer{oracle},
		}, a.Build(rec.Scale, rec.Threads)).Run()
		if err != nil && !errors.Is(err, sim.ErrReplayDivergence) {
			t.Fatalf("oracle replay: %v", err)
		}
		completed := err == nil && !res.Hung
		races := raceStrings(oracle.Races())

		srv := New(Config{Workers: 1})
		defer shutdownOrFail(t, srv)
		query := fmt.Sprintf("app=%s&seed=%d&inject=%d&detect=online&duty=100&verify=0&detector=%s&inject_thread=%d&inject_nth=%d",
			rec.App, rec.Seed, rec.Inject, detector, rec.Result.InjectedThread, rec.Result.InjectedThreadNth)
		status, b := serveStreamInProcess(srv, query, body.Bytes(), 1+int(chunk%8192))
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", query, status, b)
		}
		var sr StreamResponse
		if err := json.Unmarshal(b, &sr); err != nil || sr.Online == nil {
			t.Fatalf("%s: no online summary (%v): %s", query, err, b)
		}
		on := sr.Online
		if on.Completed != completed || on.RacyAccesses != oracle.RaceCount() ||
			on.RacesSoFar != len(oracle.Races()) || !slices.Equal(on.Races, races) {
			t.Fatalf("%s: online completed=%v racy=%d races=%d, replay-time completed=%v racy=%d races=%d\nonline: %q\nreplay: %q",
				query, on.Completed, on.RacyAccesses, on.RacesSoFar, completed, oracle.RaceCount(), len(oracle.Races()), on.Races, races)
		}
	})
}

// FuzzCampaignRequests drives the admission paths of POST /v1/campaign/plan,
// /v1/campaign/shard and /v1/fleet/register with arbitrary bodies. Every
// refusal must be typed: 400 bad_request wrapping ErrBadRequest, or 422
// fingerprint_mismatch — never a 5xx, another code, or a panic. A shard that
// validate admits is checked against the campaign's domain but never
// executed, so the target runs no simulation; only refused shards go through
// the handler, which must answer with validate's verdict.
func FuzzCampaignRequests(f *testing.F) {
	const (
		plan, shard, register = 0, 1, 2
		meta                  = `{"base_seed": 7, "scale": 1, "threads": 2, "injections": 2, "apps": ["fft"]}`
		head                  = `{"campaign": "paper-repro", "shard_id": "fft.0.2", "fingerprint": "976adcbc7ab77749", "options": ` + meta
	)
	f.Add(uint8(plan), `{"campaign": "paper-repro", "options": `+meta+`}`)
	f.Add(uint8(plan), `{"campaign": "c", "options": {"injections": 1048577, "threads": 65}}`)
	f.Add(uint8(plan), `{"campaign": "no spaces", "options": {"apps": ["nonesuch"]}}`)
	f.Add(uint8(plan), `{"campaign": "c", "options": {"apps": ["fft", "lu", "fft"]}}`)
	f.Add(uint8(shard), `{"campaign": "c", "shard_id": "fft.0.1", "fingerprint": "0000000000000000", "options": {"apps": ["fft", "fft"]}, "range": {"app": "fft", "lo": 0, "hi": 1}}`)
	f.Add(uint8(shard), head+`, "range": {"app": "fft", "lo": 0, "hi": 2}}`)
	f.Add(uint8(shard), head+`, "range": {"app": "fft", "lo": 0, "hi": 2}, "origin": "requeue"}`)
	f.Add(uint8(shard), head+`, "ranges": [{"app": "fft", "lo": 0, "hi": 2}]}`) // the schema 1 body
	f.Add(uint8(shard), head+`, "range": {"app": "fft", "lo": 1, "hi": 3}}`)
	f.Add(uint8(shard), head+`, "range": {"app": "lu", "lo": 0, "hi": 1}, "origin": "steal"}`)
	f.Add(uint8(shard), `{"campaign": "c", "shard_id": "s", "fingerprint": "0000000000000000", "options": `+meta+`, "range": {"app": "fft", "lo": 0, "hi": 1}}`)
	f.Add(uint8(register), `{"url": "http://worker-a:8080", "workers": 4, "ttl_seconds": 30}`)
	f.Add(uint8(register), `{"url": "worker-c.example"}`)
	f.Add(uint8(register), `{"url": "http://w", "ttl_seconds": 301, "workers": -1}`)
	f.Add(uint8(register), `[]`)

	s := New(Config{Workers: 1})
	f.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	paths := []string{plan: "/v1/campaign/plan", shard: "/v1/campaign/shard", register: "/v1/fleet/register"}
	f.Fuzz(func(t *testing.T, endpoint uint8, body string) {
		kind := int(endpoint) % len(paths)
		want := 0 // the shard status validate decides; 0 for any other endpoint
		if kind == shard {
			var req CampaignShardRequest
			err := decodeJSONBody(httptest.NewRequest(http.MethodPost, paths[shard], strings.NewReader(body)), &req)
			if err == nil {
				var opts experiment.Options
				if opts, err = req.validate(); err == nil {
					checkAdmittedShard(t, req, opts)
					return
				}
			}
			switch {
			case errors.Is(err, ErrBadRequest):
				want = http.StatusBadRequest
			case errors.As(err, new(fingerprintMismatch)):
				want = http.StatusUnprocessableEntity
			default:
				t.Fatalf("%s: refusal %v is neither ErrBadRequest nor a fingerprint mismatch", body, err)
			}
		}

		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, paths[kind], strings.NewReader(body)))
		if w.Code == http.StatusOK && kind != shard {
			checkAdmittedCampaignBody(t, kind == plan, w.Body.Bytes())
			return
		}
		var eb errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
			t.Fatalf("%s %s: status %d with an unparsable error body %q", paths[kind], body, w.Code, w.Body)
		}
		codes := map[int]string{http.StatusBadRequest: codeBadRequest, http.StatusUnprocessableEntity: codeFingerprintMismatch}
		if code, ok := codes[w.Code]; !ok || eb.Code != code || eb.Schema != SchemaVersion || (want != 0 && w.Code != want) {
			t.Fatalf("%s %s: answered %d %+v; want a typed 400 or 422 (validate says %d)", paths[kind], body, w.Code, eb, want)
		}
	})
}

// checkAdmittedShard fails unless an admitted shard is inside its campaign:
// well-formed ids, a known origin, the worker's fingerprint, and a
// non-empty range of one of the campaign's applications.
func checkAdmittedShard(t *testing.T, req CampaignShardRequest, opts experiment.Options) {
	t.Helper()
	meta := opts.Meta()
	r := req.Range
	if !identRe.MatchString(req.Campaign) || !identRe.MatchString(req.ShardID) ||
		(req.Origin != "" && req.Origin != "requeue") || req.Fingerprint != opts.Fingerprint() ||
		!slices.Contains(meta.Apps, r.App) || r.Lo < 0 || r.Lo >= r.Hi || r.Hi > meta.Injections ||
		meta.Injections > MaxInjections || meta.Threads > MaxThreads || meta.Scale > MaxScale {
		t.Fatalf("validate admitted an out-of-domain shard %+v", req)
	}
}

// checkAdmittedCampaignBody fails unless a 200 plan or register answer is
// self-consistent; a plan names each application once.
func checkAdmittedCampaignBody(t *testing.T, plan bool, body []byte) {
	t.Helper()
	if plan {
		var p CampaignPlanResponse
		err := json.Unmarshal(body, &p)
		distinct := slices.Clone(p.Apps)
		slices.Sort(distinct)
		if err != nil || p.Schema != SchemaVersion || len(slices.Compact(distinct)) != len(p.Apps) ||
			p.RunsPerApp < 1 || p.RunsPerApp > MaxInjections || p.TotalRuns != p.RunsPerApp*len(p.Apps) {
			t.Fatalf("inconsistent plan answer %s (%v)", body, err)
		}
		return
	}
	var reg FleetRegisterResponse
	if err := json.Unmarshal(body, &reg); err != nil || reg.Schema != SchemaVersion ||
		reg.TTLSeconds < 1 || reg.TTLSeconds > maxFleetTTLSeconds || reg.LiveWorkers < 1 {
		t.Fatalf("inconsistent register answer %s (%v)", body, err)
	}
}
