package server

import (
	"context"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"time"

	"cord/internal/record"
	"cord/internal/sim"
)

// This file implements POST /v1/stream: the streaming order-record ingestion
// session of PROTOCOL.md §4. The request body is one encoded order log
// delivered as arbitrarily sized chunks; entries are decoded incrementally
// (record.StreamDecoder, fixed reusable read buffer) and folded into
// per-thread shard state on the fly — the session's memory cost is constant
// in stream length. At end of stream the server optionally re-executes the
// named run and compares the recorded log against the streamed one by
// content hash, answering with a deterministic StreamResponse summary.
//
// Streams are long-lived, so they do not ride the worker queue: they get
// their own admission slots (Config.MaxStreams), per-session byte/frame
// quotas, and an idle timeout enforced with per-chunk read deadlines.

// streamShard is one thread's slice of a session's detector state. Shards
// are independent by construction — entry ordering constraints are
// per-thread (PROTOCOL.md §3) — which is what lets concurrent sessions
// scale without shared write state.
type streamShard struct {
	entries      uint64
	instructions uint64
	firstTime    uint64
	lastTime     uint64
}

// ShardSummary is one thread's end-of-stream summary in a StreamResponse.
type ShardSummary struct {
	Thread       int    `json:"thread"`
	Entries      uint64 `json:"entries"`
	Instructions uint64 `json:"instructions"`
	FirstTime    uint64 `json:"first_time"`
	LastTime     uint64 `json:"last_time"`
}

// streamIngest is the per-session ingest state: one shard per declared
// thread, the per-thread clock unwrap, and the content hash. It is the emit
// target of the incremental decoder; no entry is retained. The hash is fed
// each chunk's raw bytes, not entries.
type streamIngest struct {
	shards    []streamShard
	clocks    *record.Unwrapper // offline only: online, the epoch stream unwraps
	hash      *logHash
	frames    uint64
	maxFrames uint64
}

func newStreamIngest(threads int, maxFrames uint64) *streamIngest {
	return &streamIngest{
		shards:    make([]streamShard, threads),
		clocks:    record.NewUnwrapper(threads),
		hash:      newLogHash(),
		maxFrames: maxFrames,
	}
}

// errStreamQuota marks a stream that exceeded its frame quota; the handler
// maps it to 413 / code "quota_exceeded".
var errStreamQuota = errors.New("server: stream quota exceeded")

// ingest folds one decoded entry into the session state: the quota check,
// the clock unwrap, and the shard fold.
func (g *streamIngest) ingest(e record.Entry) error {
	if err := g.admit(); err != nil {
		return err
	}
	at, err := g.clocks.Unwrap(e)
	if err != nil {
		return err
	}
	g.fold(e, at)
	return nil
}

// admit is the frame quota, checked before anything else looks at an entry
// so that a 413 wins over a 422 on the same entry.
func (g *streamIngest) admit() error {
	if g.frames >= g.maxFrames {
		return fmt.Errorf("%w: frame quota (%d frames) exhausted", errStreamQuota, g.maxFrames)
	}
	return nil
}

// fold counts entry e, already unwrapped to logical time at, into its
// thread's shard.
func (g *streamIngest) fold(e record.Entry, at uint64) {
	sh := &g.shards[e.Thread]
	if sh.entries == 0 {
		sh.firstTime = at
	}
	sh.lastTime = at
	sh.entries++
	sh.instructions += uint64(e.Instr)
	g.frames++
}

// summaries renders the non-empty shards in thread order — deterministic, so
// identical streams produce byte-identical response bodies.
func (g *streamIngest) summaries() []ShardSummary {
	out := make([]ShardSummary, 0, len(g.shards))
	for t := range g.shards {
		sh := &g.shards[t]
		if sh.entries == 0 {
			continue
		}
		out = append(out, ShardSummary{
			Thread:       t,
			Entries:      sh.entries,
			Instructions: sh.instructions,
			FirstTime:    sh.firstTime,
			LastTime:     sh.lastTime,
		})
	}
	return out
}

// logHash is the §4.4 content hash of an encoded log: FNV-1a 64 over the
// bytes after the 16-byte header, written in any split. A stream writes each
// chunk as it lands, header and all; hashLog writes a log's encoding.
type logHash struct {
	fnv hash.Hash64
	n   int64 // bytes written so far, header included
}

func newLogHash() *logHash { return &logHash{fnv: fnv.New64a()} }

func (h *logHash) Write(p []byte) (int, error) {
	n := len(p)
	if skip := record.HeaderBytes - h.n; skip > 0 {
		p = p[min(skip, int64(n)):]
	}
	h.n += int64(n)
	h.fnv.Write(p)
	return n, nil
}

func (h *logHash) Sum64() uint64 { return h.fnv.Sum64() }

// hashLog computes the content hash of an in-memory log — the verification
// side of the comparison.
func hashLog(l *record.Log) uint64 {
	h := newLogHash()
	_ = l.EncodeTo(h) // logHash.Write never fails
	return h.Sum64()
}

// StreamResponse is the end-of-stream summary of one /v1/stream session.
// It is a pure function of the streamed bytes and the session parameters:
// identical streams yield byte-identical bodies. When Verified is true,
// Detect holds the full one-shot DetectResponse of the authoritative
// re-execution (byte-identical, after re-encoding, to POST /v1/detect with
// the same parameters) and LogMatch reports whether the streamed log's
// content hash equals the re-execution's recorded log.
type StreamResponse struct {
	Schema   int            `json:"schema"`
	App      string         `json:"app"`
	Seed     uint64         `json:"seed"`
	Scale    int            `json:"scale"`
	Threads  int            `json:"threads"`
	Inject   uint64         `json:"inject,omitempty"`
	D        int            `json:"d"`
	Frames   uint64         `json:"frames"`
	LogBytes uint64         `json:"log_bytes"`
	LogHash  string         `json:"log_hash"`
	Shards   []ShardSummary `json:"shards"`
	Verified bool           `json:"verified"`
	LogMatch bool           `json:"log_match"`
	// Online holds the incremental detection verdict of a detect=online
	// session (PROTOCOL.md §4.7); absent otherwise.
	Online *OnlineSummary `json:"online,omitempty"`
	// Detect is kept the last field so text tooling (service-smoke.sh) can
	// extract the block and compare it against a one-shot /v1/detect body.
	Detect *DetectResponse `json:"detect,omitempty"`
}

// streamOptions are one session's parsed query parameters: the DetectRequest
// domain plus the streaming-only knobs (verification, online detection, the
// duty cycle, and the recorded run's injection identity for online replay).
type streamOptions struct {
	req    DetectRequest
	verify bool
	online bool
	// duty is the online duty percentage; -1 until resolved against the
	// server default (Config.StreamDuty).
	duty int
	// injectThread/injectNth re-apply the recorded run's fault injection to
	// the online replay, exactly like a /v1/replay request; -1 = none.
	injectThread int
	injectNth    uint64
	// detector selects the online detector family (PROTOCOL.md §4.7):
	// "cord" (the default) or "fasttrack".
	detector string
}

// parseStreamQuery extracts the session parameters (the DetectRequest
// domain, query-string encoded — the body is the binary stream) plus the
// streaming flags. verify defaults to on; detect=online is off by default.
func parseStreamQuery(r *http.Request) (streamOptions, error) {
	q := r.URL.Query()
	o := streamOptions{verify: true, duty: -1, injectThread: -1}
	o.req = DetectRequest{App: q.Get("app")}
	var err error
	if o.req.Seed, err = queryUint(q.Get("seed"), 0); err != nil {
		return o, fmt.Errorf("%w: seed: %v", ErrBadRequest, err)
	}
	if o.req.Scale, err = queryInt(q.Get("scale"), 0); err != nil {
		return o, fmt.Errorf("%w: scale: %v", ErrBadRequest, err)
	}
	if o.req.Threads, err = queryInt(q.Get("threads"), 0); err != nil {
		return o, fmt.Errorf("%w: threads: %v", ErrBadRequest, err)
	}
	if o.req.Inject, err = queryUint(q.Get("inject"), 0); err != nil {
		return o, fmt.Errorf("%w: inject: %v", ErrBadRequest, err)
	}
	if o.req.D, err = queryInt(q.Get("d"), 0); err != nil {
		return o, fmt.Errorf("%w: d: %v", ErrBadRequest, err)
	}
	switch v := q.Get("verify"); v {
	case "", "1", "true":
	case "0", "false":
		o.verify = false
	default:
		return o, fmt.Errorf("%w: verify: want 0 or 1, got %q", ErrBadRequest, v)
	}
	switch v := q.Get("detect"); v {
	case "":
	case "online":
		o.online = true
	default:
		return o, fmt.Errorf("%w: detect: want online, got %q", ErrBadRequest, v)
	}
	if v := q.Get("duty"); v != "" {
		if !o.online {
			return o, fmt.Errorf("%w: duty requires detect=online", ErrBadRequest)
		}
		n, err := queryInt(v, -1)
		if err != nil || n < 0 || n > 100 {
			return o, fmt.Errorf("%w: duty: want an integer in [0, 100], got %q", ErrBadRequest, v)
		}
		o.duty = n
	}
	switch v := q.Get("detector"); v {
	case "":
		o.detector = "cord"
	case "cord", "fasttrack":
		if !o.online {
			return o, fmt.Errorf("%w: detector requires detect=online", ErrBadRequest)
		}
		o.detector = v
	default:
		return o, fmt.Errorf("%w: detector: want cord or fasttrack, got %q", ErrBadRequest, v)
	}
	if v := q.Get("inject_thread"); v != "" {
		if !o.online {
			return o, fmt.Errorf("%w: inject_thread requires detect=online", ErrBadRequest)
		}
		if o.injectThread, err = queryInt(v, -1); err != nil {
			return o, fmt.Errorf("%w: inject_thread: %v", ErrBadRequest, err)
		}
	}
	if v := q.Get("inject_nth"); v != "" {
		if !o.online {
			return o, fmt.Errorf("%w: inject_nth requires detect=online", ErrBadRequest)
		}
		if o.injectNth, err = queryUint(v, 0); err != nil {
			return o, fmt.Errorf("%w: inject_nth: %v", ErrBadRequest, err)
		}
	}
	return o, nil
}

// validateOnline checks the online-only parameters once defaults are in
// place, mirroring ReplayRequest.Validate for the injection identity.
func (o *streamOptions) validateOnline() error {
	if !o.online {
		return nil
	}
	if o.injectThread < -1 || o.injectThread >= o.req.Threads {
		return fmt.Errorf("%w: inject_thread must be in [0, %d)", ErrBadRequest, o.req.Threads)
	}
	if o.injectThread >= 0 && o.injectNth == 0 {
		return fmt.Errorf("%w: inject_nth must be at least 1 when inject_thread is set", ErrBadRequest)
	}
	return nil
}

// streamReadChunk is the size of the reusable read buffer; one buffer serves
// the whole session regardless of stream length.
const streamReadChunk = 32 << 10

// statusResponded is serveStream's sentinel for "the failure was already
// written to the wire as an error frame": the 200 status was committed by an
// earlier progress frame, so the handler classifies the outcome for metrics
// but must not write a second response.
const statusResponded = -1

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	opts, err := parseStreamQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	opts.req.ApplyDefaults()
	if err := opts.req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := opts.validateOnline(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if opts.duty < 0 {
		opts.duty = s.cfg.StreamDuty
	}

	// Admission: drain state first, then a stream slot. Accepted streams
	// count as in-flight work, so Shutdown waits for them like any session.
	if !s.accept() {
		s.m.bumpStream(func(c *StreamCounters) { c.RejectedDraining++ })
		writeErrorCode(w, http.StatusServiceUnavailable, codeDraining, errors.New("server is draining"))
		return
	}
	defer s.release()
	select {
	case s.streams <- struct{}{}:
	default:
		s.m.bumpStream(func(c *StreamCounters) { c.RejectedLimit++ })
		w.Header().Set("Retry-After", s.streamRetryAfter())
		writeErrorCode(w, http.StatusTooManyRequests, codeStreamLimit,
			fmt.Errorf("all %d stream slots are busy", s.cfg.MaxStreams))
		return
	}
	defer func() { <-s.streams }()

	s.m.bumpStream(func(c *StreamCounters) {
		c.Started++
		if opts.online {
			c.OnlineSessions++
		}
	})
	start := time.Now()
	defer func() { s.m.observe(r.URL.Path, time.Since(start)) }()
	status, code, ferr := s.serveStream(w, r, opts)
	if ferr == nil {
		return // 2xx summary already written
	}
	switch {
	case status == statusClientGone:
		s.m.bumpStream(func(c *StreamCounters) { c.Canceled++ })
		return // nobody left to write to
	case code == codeIdleTimeout:
		s.m.bumpStream(func(c *StreamCounters) { c.IdleTimeout++ })
	case code == codeQuotaExceeded:
		s.m.bumpStream(func(c *StreamCounters) { c.QuotaExceeded++ })
	case code == codeTimeout:
		s.m.bumpStream(func(c *StreamCounters) { c.TimedOut++ })
	default:
		s.m.bumpStream(func(c *StreamCounters) { c.Failed++ })
	}
	if status != statusResponded {
		// The connection closes after the error body (PROTOCOL.md §4.3)
		// instead of draining the unread rest for keep-alive: under full
		// duplex (online sessions) net/http's post-handler drain starts a
		// background read that its next-request read then trips over.
		w.Header().Set("Connection", "close")
		writeErrorCode(w, status, code, ferr)
	}
}

// streamRetryAfter computes the Retry-After value for a stream-slot 429 from
// the observed /v1/stream latency (see Server.retryAfter — the session-queue
// 429 path uses the same derivation for its endpoints).
func (s *Server) streamRetryAfter() string {
	return s.retryAfter("/v1/stream")
}

// serveStream runs one admitted streaming session: the chunked ingest loop,
// end-of-stream completeness check, optional online replay join and
// verification re-execution, and the summary write. A nil error means the
// 200 summary was written; any other outcome is returned as (status,
// taxonomy code, error) for the handler to classify — with statusResponded
// meaning the error already went out as a frame (PROTOCOL.md §4.7).
func (s *Server) serveStream(w http.ResponseWriter, r *http.Request, opts streamOptions) (int, string, error) {
	req := opts.req
	rc := http.NewResponseController(w)
	dec := record.NewStreamDecoder()
	ing := newStreamIngest(req.Threads, s.cfg.MaxStreamFrames)
	buf := make([]byte, streamReadChunk)
	var bytesIn int64

	// Online mode: an incremental replay session consumes epochs as chunks
	// land, and a frame writer reports its progress mid-stream. fail wraps
	// error returns so post-header failures travel as error frames.
	var (
		online *onlineSession
		fw     *frameWriter
	)
	fail := func(status int, code string, err error) (int, string, error) {
		if fw != nil && fw.wrote {
			fw.fail(code, err)
			return statusResponded, code, err
		}
		return status, code, err
	}
	sink := ing.ingest
	if opts.online {
		online = startOnline(opts, ing)
		defer online.stop()
		fw = newFrameWriter(w, rc)
		sink = online.ingest
	}

	defer func() {
		s.m.bumpStream(func(c *StreamCounters) {
			c.BytesIngested += uint64(bytesIn)
			c.FramesIngested += ing.frames
		})
	}()

	for {
		// The idle clock rearms per chunk: a stream stays admitted as long
		// as it keeps delivering bytes, no matter how long it runs in total.
		if err := rc.SetReadDeadline(time.Now().Add(s.cfg.StreamIdleTimeout)); err != nil {
			return fail(http.StatusInternalServerError, codeInternal,
				fmt.Errorf("stream transport does not support read deadlines: %w", err))
		}
		n, err := r.Body.Read(buf)
		if n > 0 {
			if bytesIn += int64(n); bytesIn > s.cfg.MaxStreamBytes {
				return fail(http.StatusRequestEntityTooLarge, codeQuotaExceeded,
					fmt.Errorf("%w: byte quota (%d bytes) exhausted", errStreamQuota, s.cfg.MaxStreamBytes))
			}
			if err := dec.Feed(buf[:n], sink); err != nil {
				return fail(streamIngestFailure(err))
			}
			// Release before the hash: in online mode the chunk's epochs
			// are then with the replay engine while the hash runs.
			if online != nil {
				online.release()
			}
			ing.hash.Write(buf[:n])
			if online != nil {
				fw.progress(online, ing, bytesIn, n)
			}
		}
		if err != nil {
			if err == io.EOF {
				break
			}
			if errors.Is(err, os.ErrDeadlineExceeded) {
				return fail(http.StatusRequestTimeout, codeIdleTimeout,
					fmt.Errorf("stream idle for more than %v", s.cfg.StreamIdleTimeout))
			}
			// Anything else mid-body is the client going away (reset,
			// cancelled context, malformed chunking): no one to answer.
			return statusClientGone, "", err
		}
	}
	// Clear the read deadline so it cannot fire under the replay join, the
	// verification run, or the response write.
	rc.SetReadDeadline(time.Time{})

	if err := dec.Close(); err != nil {
		return fail(streamIngestFailure(err))
	}

	resp := &StreamResponse{
		Schema:   SchemaVersion,
		App:      req.App,
		Seed:     req.Seed,
		Scale:    req.Scale,
		Threads:  req.Threads,
		Inject:   req.Inject,
		D:        req.D,
		Frames:   ing.frames,
		LogBytes: ing.frames * record.EntryBytes,
		LogHash:  fmt.Sprintf("%016x", ing.hash.Sum64()),
		Shards:   ing.summaries(),
	}
	if online != nil {
		out, status, code, err := online.finish(r.Context().Done(), s.cfg.SessionTimeout)
		if err != nil {
			if status == statusClientGone {
				return statusClientGone, "", err
			}
			return fail(status, code, err)
		}
		switch {
		case out.err != nil && !errors.Is(out.err, sim.ErrReplayDivergence):
			return fail(http.StatusInternalServerError, codeInternal, out.err)
		}
		resp.Online = online.summary(out)
		s.m.bumpStream(func(c *StreamCounters) {
			c.OnlineRaces += uint64(resp.Online.RacesSoFar)
			c.OnlineEpochsTotal += resp.Online.EpochsTotal
			c.OnlineEpochsObserved += resp.Online.EpochsObserved
			if !resp.Online.Completed {
				c.OnlineDivergences++
			}
		})
	}
	if opts.verify {
		// The authoritative re-execution runs under the session timeout and
		// the client's context: disconnecting mid-verify cancels the engine
		// (sim.Config.Cancel) exactly like a one-shot session.
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.SessionTimeout)
		det, log, err := runDetectSession(ctx, req)
		cancel()
		switch {
		case errors.Is(err, context.Canceled) && r.Context().Err() != nil:
			return statusClientGone, "", err
		case errors.Is(err, context.DeadlineExceeded):
			return fail(http.StatusGatewayTimeout, codeTimeout,
				fmt.Errorf("verification run exceeded the %v timeout", s.cfg.SessionTimeout))
		case err != nil:
			return fail(http.StatusInternalServerError, codeInternal, err)
		}
		resp.Verified = true
		resp.LogMatch = uint64(log.Len()) == ing.frames && hashLog(log) == ing.hash.Sum64()
		resp.Detect = det
	}

	b, err := encodeJSON(resp)
	if err != nil {
		return fail(http.StatusInternalServerError, codeInternal, err)
	}
	s.m.bumpStream(func(c *StreamCounters) { c.Completed++ })
	if fw != nil && fw.wrote {
		// Frames already committed the 200 and chunked framing; append the
		// summary as the final body segment.
		w.Write(b)
	} else {
		writeBody(w, http.StatusOK, b)
	}
	return http.StatusOK, "", nil
}

// streamIngestFailure maps a decode/ingest error onto (status, code): the
// taxonomy distinguishes structural damage, truncation, order violations and
// quota exhaustion so clients can tell a corrupt recording from a short one.
func streamIngestFailure(err error) (int, string, error) {
	switch {
	case errors.Is(err, errStreamQuota):
		return http.StatusRequestEntityTooLarge, codeQuotaExceeded, err
	case errors.Is(err, record.ErrOrderViolation):
		return http.StatusUnprocessableEntity, codeOrderViolation, err
	case errors.Is(err, record.ErrBadFormat) && errors.Is(err, io.ErrUnexpectedEOF):
		return http.StatusBadRequest, codeTruncated, err
	case errors.Is(err, record.ErrBadFormat):
		return http.StatusBadRequest, codeBadFormat, err
	default:
		return http.StatusInternalServerError, codeInternal, err
	}
}
