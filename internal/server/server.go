package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"time"

	"cord/internal/chaos"
	"cord/internal/record"
)

// Config sizes one Server. Zero values select the defaults.
type Config struct {
	// Workers is the number of concurrent sessions the pool executes
	// (default: runtime.NumCPU()). Each session is one simulation run.
	Workers int
	// QueueDepth is how many accepted sessions may wait for a worker
	// (default 16). A full queue rejects new sessions with HTTP 429.
	QueueDepth int
	// SessionTimeout bounds one session's execution (default 60s); an
	// expired session cancels its engine and answers HTTP 504.
	SessionTimeout time.Duration
	// MaxBodyBytes bounds request bodies (default 8 MiB) — both the JSON
	// detect requests and the binary order logs feeding record.DecodeFrom.
	MaxBodyBytes int64

	// MaxStreams bounds concurrent /v1/stream sessions (default 8). Streams
	// are long-lived and bypass the worker queue, so they get their own
	// admission slot pool; a full pool answers 429 + Retry-After.
	MaxStreams int
	// StreamIdleTimeout is the longest a stream may go without delivering a
	// byte before the session is evicted with 408 (default 30s). It bounds
	// liveness, not total duration: an active stream may run indefinitely.
	StreamIdleTimeout time.Duration
	// MaxStreamBytes is the per-session byte quota of one stream
	// (default 256 MiB); exceeding it answers 413.
	MaxStreamBytes int64
	// MaxStreamFrames is the per-session frame quota of one stream
	// (default 16Mi entries); exceeding it answers 413.
	MaxStreamFrames uint64

	// Chaos is the optional fault injector (nil in production): when its
	// worker-kill knob is armed, completing a campaign shard may terminate
	// the process before the response is written, so fleet coordinators see
	// the dropped connection a real worker death produces.
	Chaos *chaos.Chaos
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.SessionTimeout <= 0 {
		c.SessionTimeout = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxStreams <= 0 {
		c.MaxStreams = 8
	}
	if c.StreamIdleTimeout <= 0 {
		c.StreamIdleTimeout = 30 * time.Second
	}
	if c.MaxStreamBytes <= 0 {
		c.MaxStreamBytes = 256 << 20
	}
	if c.MaxStreamFrames == 0 {
		c.MaxStreamFrames = 16 << 20
	}
	return c
}

// sessionResult is what a worker hands back to the waiting handler.
type sessionResult struct {
	status int
	body   []byte
}

// statusClientGone is the internal status for a session whose client
// disconnected before the response could be written (nginx's 499). It is
// never written to a socket — the socket is gone — but it keeps the
// completion path uniform.
const statusClientGone = 499

// session is one accepted unit of work: a closure over the parsed request,
// executed by a worker under a merged (client ∪ timeout) context.
type session struct {
	ctx  context.Context // the request context: client disconnect cancels it
	run  func(ctx context.Context) (any, error)
	done chan sessionResult // buffered(1): workers never block on delivery
}

// Server is the cordd HTTP service: a mux over the API endpoints in front of
// a bounded worker pool. It implements http.Handler. Create with New; stop
// with Shutdown.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	queue   chan *session
	streams chan struct{} // stream admission slots (semaphore)
	stop    chan struct{}
	wg      sync.WaitGroup
	m       *metrics
	start   time.Time

	mu       sync.Mutex
	cond     *sync.Cond
	draining bool
	inflight int

	stopOnce sync.Once

	// shardMu/shards is the campaign shard-conflict registry: bounded shard
	// identities mapped to their content hashes (see registerShard).
	shardMu sync.Mutex
	shards  map[shardKey]uint64

	// fleetMu/fleet is the worker registry (see fleet.go): advertised worker
	// URL -> live registration, expired entries pruned lazily against now.
	fleetMu sync.Mutex
	fleet   map[string]*fleetEntry

	// now is time.Now, a field so registry tests and the doc-conformance
	// suite can freeze the clock and get byte-stable listings.
	now func() time.Time

	// runDetect/runReplay execute one session; fields so tests can
	// substitute controllable work.
	runDetect func(ctx context.Context, req DetectRequest) (*DetectResponse, error)
	runReplay func(ctx context.Context, req ReplayRequest, log *record.Log) (*ReplayResponse, error)
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		queue:     make(chan *session, cfg.QueueDepth),
		streams:   make(chan struct{}, cfg.MaxStreams),
		stop:      make(chan struct{}),
		m:         newMetrics(),
		start:     time.Now(),
		now:       time.Now,
		runDetect: RunDetect,
		runReplay: RunReplay,
	}
	s.cond = sync.NewCond(&s.mu)
	s.mux.HandleFunc("POST /v1/detect", s.handleDetect)
	s.mux.HandleFunc("POST /v1/replay", s.handleReplay)
	s.mux.HandleFunc("POST /v1/stream", s.handleStream)
	s.mux.HandleFunc("POST /v1/campaign/plan", s.handleCampaignPlan)
	s.mux.HandleFunc("POST /v1/campaign/shard", s.handleCampaignShard)
	s.mux.HandleFunc("POST /v1/fleet/register", s.handleFleetRegister)
	s.mux.HandleFunc("GET /v1/fleet/workers", s.handleFleetWorkers)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// ServeHTTP dispatches to the service mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Metrics returns a snapshot of the cumulative counters. The fleet block's
// live-worker gauge is sampled at snapshot time (pruning expired entries), so
// /metrics always reflects current membership, not the last mutation.
func (s *Server) Metrics() Metrics {
	m := s.m.snapshot(time.Since(s.start), s.cfg.Workers, len(s.queue), cap(s.queue))
	m.Fleet.LiveWorkers = s.fleetLive()
	return m
}

// Shutdown drains the server: new sessions are rejected with 503, every
// already-accepted session runs to completion (the HTTP server in front must
// keep serving their connections), then the workers exit. It returns ctx's
// error if the drain does not finish in time — accepted sessions are still
// bounded by SessionTimeout, so a drain never hangs longer than that plus
// queue wait.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.mu.Lock()
		for s.inflight > 0 {
			s.cond.Wait()
		}
		s.mu.Unlock()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		s.mu.Lock()
		n := s.inflight
		s.mu.Unlock()
		return fmt.Errorf("server: shutdown interrupted with %d sessions in flight: %w", n, ctx.Err())
	}
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
	return nil
}

// accept registers intent to enqueue one session; it fails once draining.
func (s *Server) accept() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight++
	return true
}

// release retires one accepted session and wakes a pending drain.
func (s *Server) release() {
	s.mu.Lock()
	s.inflight--
	if s.inflight == 0 {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case sess := <-s.queue:
			s.serve(sess)
		case <-s.stop:
			return
		}
	}
}

// serve executes one session under the merged client/timeout context and
// counts its outcome; classify picks the error status and code.
func (s *Server) serve(sess *session) {
	defer s.release()
	s.m.bump(func(c *SessionCounters) { c.Started++ })
	ctx, cancel := context.WithTimeout(sess.ctx, s.cfg.SessionTimeout)
	defer cancel()
	v, err := sess.run(ctx)
	var b []byte
	if err == nil {
		b, err = encodeJSON(v)
	}
	var res sessionResult
	switch {
	case err == nil:
		s.m.bump(func(c *SessionCounters) { c.Completed++ })
		res = sessionResult{status: http.StatusOK, body: b}
	case errors.Is(err, context.DeadlineExceeded):
		s.m.bump(func(c *SessionCounters) { c.TimedOut++ })
		res = errorResultCode(http.StatusGatewayTimeout, codeTimeout,
			fmt.Errorf("session exceeded the %v timeout", s.cfg.SessionTimeout))
	case errors.Is(err, context.Canceled):
		s.m.bump(func(c *SessionCounters) { c.Canceled++ })
		res = sessionResult{status: statusClientGone}
	default:
		s.m.bump(func(c *SessionCounters) { c.Failed++ })
		res = errorResult(http.StatusInternalServerError, err)
	}
	sess.done <- res
}

// dispatch funnels one parsed request through the pool: enqueue (or push
// back), then wait for the worker's verdict and relay it. It records the
// endpoint's full handler latency — queue wait plus execution.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, run func(ctx context.Context) (any, error)) {
	start := time.Now()
	if !s.accept() {
		s.m.bump(func(c *SessionCounters) { c.RejectedDraining++ })
		writeErrorCode(w, http.StatusServiceUnavailable, codeDraining, errors.New("server is draining"))
		return
	}
	sess := &session{ctx: r.Context(), run: run, done: make(chan sessionResult, 1)}
	select {
	case s.queue <- sess:
		s.m.bump(func(c *SessionCounters) { c.Accepted++ })
	default:
		s.release()
		s.m.bump(func(c *SessionCounters) { c.RejectedQueueFull++ })
		// The queue holds whole sessions, so a slot frees no sooner than
		// one session's service time: hint with the endpoint's observed
		// p50 handler latency, like the stream-slot 429 path.
		w.Header().Set("Retry-After", s.retryAfter(r.URL.Path))
		writeErrorCode(w, http.StatusTooManyRequests, codeQueueFull, errors.New("session queue is full"))
		return
	}
	// Always collect the verdict (cancellation makes workers finish
	// promptly), so the session lifecycle fully brackets the handler.
	res := <-sess.done
	s.m.observe(r.URL.Path, time.Since(start))
	if res.status == statusClientGone || r.Context().Err() != nil {
		return // nobody left to write to
	}
	writeBody(w, res.status, res.body)
}

// retryAfter derives a 429 Retry-After hint from the endpoint's observed p50
// handler latency — queue wait plus execution — rounded up to whole seconds
// and clamped to [1, 30]: the median session time approximates when a slot
// frees up. A cold server with no history falls back to 1 second.
func (s *Server) retryAfter(endpoint string) string {
	secs := 1
	if p50, ok := s.m.p50Ms(endpoint); ok {
		secs = int(math.Ceil(p50 / 1000))
		if secs < 1 {
			secs = 1
		}
		if secs > 30 {
			secs = 30
		}
	}
	return strconv.Itoa(secs)
}

func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req DetectRequest
	if err := decodeJSONBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	req.ApplyDefaults()
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.dispatch(w, r, func(ctx context.Context) (any, error) {
		return s.runDetect(ctx, req)
	})
}

func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	req, err := parseReplayQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	req.ApplyDefaults()
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The body is the binary order log; the size limit caps what the
	// decoder will ever see, and DecodeFrom itself rejects malformed or
	// truncated streams without oversized allocations.
	log, err := record.DecodeFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding order log: %w", err))
		return
	}
	s.dispatch(w, r, func(ctx context.Context) (any, error) {
		return s.runReplay(ctx, req, log)
	})
}

// Health is the GET /healthz body.
type Health struct {
	Schema        int     `json:"schema"`
	Status        string  `json:"status"` // "ok" or "draining"
	Workers       int     `json:"workers"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	h := Health{
		Schema:        SchemaVersion,
		Status:        "ok",
		Workers:       s.cfg.Workers,
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	status := http.StatusOK
	if draining {
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

// parseReplayQuery extracts the replay run parameters from the query string.
func parseReplayQuery(r *http.Request) (ReplayRequest, error) {
	q := query{Values: r.URL.Query()}
	req := ReplayRequest{
		App:          q.Get("app"),
		Seed:         q.uint("seed", 0),
		Scale:        q.int("scale", 0),
		Threads:      q.int("threads", 0),
		InjectThread: q.int("inject_thread", -1),
		InjectNth:    q.uint("inject_nth", 0),
	}
	return req, q.err
}

// query reads the numeric parameters of a request's query string. An absent
// or empty parameter reads as its default; the first parameter that does not
// parse is kept in err, wrapping ErrBadRequest.
type query struct {
	url.Values
	err error
}

func (q *query) int(name string, def int) int {
	s := q.Get(name)
	if s == "" {
		return def
	}
	v, err := strconv.Atoi(s)
	q.keep(name, err)
	return v
}

func (q *query) uint(name string, def uint64) uint64 {
	s := q.Get(name)
	if s == "" {
		return def
	}
	v, err := strconv.ParseUint(s, 10, 64)
	q.keep(name, err)
	return v
}

// keep records err as the query's failure unless an earlier read failed.
func (q *query) keep(name string, err error) {
	if err != nil && q.err == nil {
		q.err = fmt.Errorf("%w: %s: %v", ErrBadRequest, name, err)
	}
}

// decodeJSONBody strictly parses one JSON value from the request body;
// unknown fields are rejected so parameter typos fail loudly instead of
// silently running the default configuration.
func decodeJSONBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return tooLarge
		}
		return fmt.Errorf("%w: decoding request body: %v", ErrBadRequest, err)
	}
	return nil
}

// errorBody is the uniform error response shape. Code is the machine-readable
// taxonomy entry (PROTOCOL.md §errors): clients branch on it instead of
// parsing the human-readable Error text.
type errorBody struct {
	Schema int    `json:"schema"`
	Code   string `json:"code"`
	Error  string `json:"error"`
}

// Error-taxonomy codes. Every non-2xx body carries exactly one.
const (
	codeBadRequest     = "bad_request"     // parameters out of domain or unparseable
	codeBadFormat      = "bad_format"      // structurally damaged binary log (record.ErrBadFormat)
	codeTruncated      = "truncated"       // log ended before its declared entry count
	codeOrderViolation = "order_violation" // entries violate the order-recording invariants
	codeTooLarge       = "too_large"       // request body over MaxBodyBytes
	codeQuotaExceeded  = "quota_exceeded"  // stream exceeded its byte or frame quota
	codeIdleTimeout    = "idle_timeout"    // stream idle past StreamIdleTimeout
	codeQueueFull      = "queue_full"      // session queue full
	codeStreamLimit    = "stream_limit"    // all MaxStreams slots busy
	codeDraining       = "draining"        // server is shutting down
	codeTimeout        = "timeout"         // session exceeded SessionTimeout
	codeInternal       = "internal"        // server-side failure

	// Campaign shard protocol additions (PROTOCOL.md §6).
	codeShardConflict       = "shard_conflict"       // shard id re-used with different content
	codeFingerprintMismatch = "fingerprint_mismatch" // coordinator/worker config fingerprints disagree
)

// classify maps err onto its PROTOCOL.md §5 status and code; an error with
// no verdict of its own gets fallback: 400 (bad_request) for bytes the client
// sent, 500 (internal) for the server's own failures. Verdicts that are not
// errors of the request name their code with writeErrorCode/errorResultCode.
func classify(err error, fallback int) (int, string) {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge, codeTooLarge
	case errors.Is(err, errStreamQuota):
		return http.StatusRequestEntityTooLarge, codeQuotaExceeded
	case errors.Is(err, record.ErrOrderViolation):
		return http.StatusUnprocessableEntity, codeOrderViolation
	case errors.As(err, new(fingerprintMismatch)):
		return http.StatusUnprocessableEntity, codeFingerprintMismatch
	case errors.Is(err, record.ErrBadFormat) && errors.Is(err, io.ErrUnexpectedEOF):
		return http.StatusBadRequest, codeTruncated
	case errors.Is(err, record.ErrBadFormat):
		return http.StatusBadRequest, codeBadFormat
	case errors.Is(err, ErrBadRequest), fallback == http.StatusBadRequest:
		return http.StatusBadRequest, codeBadRequest
	default:
		return http.StatusInternalServerError, codeInternal
	}
}

// errorResult is the error body classify picks for err.
func errorResult(fallback int, err error) sessionResult {
	status, code := classify(err, fallback)
	return errorResultCode(status, code, err)
}

func errorResultCode(status int, code string, err error) sessionResult {
	b, encErr := encodeJSON(errorBody{Schema: SchemaVersion, Code: code, Error: err.Error()})
	if encErr != nil { // can't happen: errorBody always marshals
		b = []byte(fmt.Sprintf(`{"schema":%d,"code":"internal","error":"internal error"}`+"\n", SchemaVersion))
	}
	return sessionResult{status: status, body: b}
}

// writeError writes the error body classify picks for err.
func writeError(w http.ResponseWriter, fallback int, err error) {
	res := errorResult(fallback, err)
	writeBody(w, res.status, res.body)
}

// writeErrorCode writes an error body with an explicit taxonomy code.
func writeErrorCode(w http.ResponseWriter, status int, code string, err error) {
	res := errorResultCode(status, code, err)
	writeBody(w, res.status, res.body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := encodeJSON(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeBody(w, status, b)
}

func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}
