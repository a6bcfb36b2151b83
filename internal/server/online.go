package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"cord/internal/baseline"
	"cord/internal/core"
	"cord/internal/record"
	"cord/internal/sim"
	"cord/internal/trace"
)

// This file implements online race detection on the streaming path
// (PROTOCOL.md §4.7): with detect=online, the session replays the named run
// *while the order log is still arriving* — each released epoch feeds an
// incremental replay engine (sim.ReplayFeed) observed by a CORD detector, so
// races surface mid-stream in progress frames instead of waiting for the
// end-of-stream verification. A duty cycle (duty=0..100) toggles the
// detector at epoch boundaries, trading coverage for cost the way HardRace's
// monitor windows do; the replay itself always follows the full schedule, so
// a partially observed run still completes deterministically.

// OnlineSummary is the "online" block of a detect=online StreamResponse: the
// verdict of the incremental replay and the duty cycle's effective coverage.
// It is a pure function of the streamed bytes and the session parameters —
// chunk timing never changes it — so summaries stay byte-deterministic.
type OnlineSummary struct {
	// Detector names the detector family the session ran ("cord" or
	// "fasttrack", the detector= query parameter).
	Detector string `json:"detector"`
	// Duty is the effective duty percentage the session ran with.
	Duty int `json:"duty"`
	// EpochsTotal counts the epochs the online replay advanced through
	// (with duty=0, the epochs released from the stream — no replay runs).
	EpochsTotal uint64 `json:"epochs_total"`
	// EpochsObserved counts the epochs replayed with detection enabled.
	EpochsObserved uint64 `json:"epochs_observed"`
	// CoveragePct is EpochsObserved/EpochsTotal, rounded to two decimals.
	CoveragePct float64 `json:"coverage_pct"`
	// AccessesObserved counts the memory accesses the detector saw.
	AccessesObserved uint64 `json:"accesses_observed"`
	// RacesSoFar is the total number of races the online detector reported;
	// progress frames carry the same counter as it grows mid-stream.
	RacesSoFar int `json:"races_so_far"`
	// RacyAccesses is the detector's racy-access counter (the same meaning
	// as a DetectorVerdict's).
	RacyAccesses int `json:"racy_accesses"`
	// Completed reports that the replay followed the log to the end of the
	// program. A divergent or hung replay is a verdict, not an error.
	Completed  bool   `json:"completed"`
	Divergence string `json:"divergence,omitempty"`
	// Races lists the online detector's races in detection order, capped at
	// MaxRacesInResponse. Races shipped in progress frames are always a
	// prefix of this list.
	Races []string `json:"races,omitempty"`
}

// progressFrame is one mid-stream status line of an online session: compact
// JSON, one frame per line, emitted at chunk boundaries before the indented
// end-of-stream summary (PROTOCOL.md §4.7). Frames are diagnostics — their
// timing and count depend on chunk arrival and are NOT deterministic; only
// the cumulative counters and the race order are.
type progressFrame struct {
	Frame          string   `json:"frame"` // "progress"
	Schema         int      `json:"schema"`
	Frames         uint64   `json:"frames"`
	Bytes          int64    `json:"bytes"`
	Epochs         uint64   `json:"epochs"`
	EpochsObserved uint64   `json:"epochs_observed"`
	RacesSoFar     int      `json:"races_so_far"`
	NewRaces       []string `json:"new_races,omitempty"`
}

// errorFrame reports a post-header failure of an online session: once a
// progress frame has been written the 200 status is committed, so the error
// travels as the final line of the body instead of an HTTP status.
type errorFrame struct {
	Frame  string `json:"frame"` // "error"
	Schema int    `json:"schema"`
	Code   string `json:"code"`
	Error  string `json:"error"`
}

// onlineDetector is what the duty gate needs from the session's detector:
// the observer feed plus race accounting. Both the CORD detector
// (detector=cord) and the FastTrack baseline (detector=fasttrack) satisfy
// it, so an online session can run either family over the identical epoch
// schedule.
type onlineDetector interface {
	trace.Observer
	Races() []trace.Race
	RaceCount() int
}

// dutyGate wraps the online detector as the replay engine's observer,
// gating OnAccess by the session's duty cycle. The gate flips only at epoch
// boundaries (the engine's OnEpoch callback): epoch idx is observed iff
// idx%100 < duty, so duty=100 observes everything and duty=0 nothing, with
// deterministic coverage in between. Clock maintenance (Migrate, ThreadDone)
// always reaches the detector so its per-thread state stays consistent
// across observation gaps.
//
// Everything except the mu-guarded snapshot fields is touched only by the
// engine's run, one coroutine at a time (see sim.Config.OnEpoch); the stream
// handler reads progress through snapshots.
type dutyGate struct {
	det  onlineDetector
	duty int

	on       bool   // detection enabled for the current epoch
	accesses uint64 // accesses forwarded to the detector

	mu       sync.Mutex
	total    uint64   // epochs advanced so far
	observed uint64   // epochs replayed with detection on
	races    int      // len(det.Races()) at the last epoch boundary
	racy     int      // det.RaceCount() at the last epoch boundary
	exported int      // races already appended to pending (capped)
	pending  []string // race strings not yet shipped in a progress frame
}

func newDutyGate(req DetectRequest, duty int, detector string) *dutyGate {
	var det onlineDetector
	if detector == "fasttrack" {
		det = baseline.NewFastTrack(baseline.FastTrackConfig{Threads: req.Threads})
	} else {
		det = core.New(core.Config{Threads: req.Threads, Procs: req.Threads, D: req.D})
	}
	return &dutyGate{det: det, duty: duty}
}

// Name implements trace.Observer.
func (g *dutyGate) Name() string { return "online-duty-gate" }

// OnAccess implements trace.Observer: accesses reach the detector only while
// the duty gate is open.
func (g *dutyGate) OnAccess(a trace.Access) trace.Report {
	if !g.on {
		return trace.Report{}
	}
	g.accesses++
	return g.det.OnAccess(a)
}

// Migrate implements trace.Observer; always forwarded (clock maintenance).
func (g *dutyGate) Migrate(thread, proc int, instr uint64) { g.det.Migrate(thread, proc, instr) }

// ThreadDone implements trace.Observer; always forwarded.
func (g *dutyGate) ThreadDone(thread int, totalInstr uint64) { g.det.ThreadDone(thread, totalInstr) }

// Finish implements trace.Observer.
func (g *dutyGate) Finish() { g.det.Finish() }

// onEpoch is the engine's epoch-boundary callback: it settles the previous
// epoch's coverage accounting, snapshots newly found races for the progress
// frames, and decides whether the next epoch is observed.
func (g *dutyGate) onEpoch(idx int) {
	g.mu.Lock()
	if idx > 0 && g.on {
		g.observed++
	}
	g.total = uint64(idx)
	races := g.det.Races()
	shown := min(len(races), MaxRacesInResponse)
	g.pending = append(g.pending, raceStrings(races[g.exported:shown])...)
	g.exported = shown
	g.races = len(races)
	g.racy = g.det.RaceCount()
	g.mu.Unlock()
	g.on = idx%100 < g.duty
}

// progressSnap is what a chunk boundary reads from the gate.
type progressSnap struct {
	total, observed uint64
	races           int
	newRaces        []string
}

// snapshot drains the pending race strings and returns the current counters.
func (g *dutyGate) snapshot() progressSnap {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := progressSnap{total: g.total, observed: g.observed, races: g.races, newRaces: g.pending}
	g.pending = nil
	return s
}

// onlineOutcome is the replay engine's terminal state.
type onlineOutcome struct {
	res sim.Result
	err error
}

// onlineSession owns one detect=online session's incremental replay: the
// epoch stream (watermark-ordered release), the feed into the engine, the
// duty-gated detector, and the engine goroutine itself. With duty=0 no
// engine runs at all — the session only counts epochs — so a duty sweep's
// zero point measures pure ingest.
type onlineSession struct {
	duty     int
	detector string

	es       *record.EpochStream // the session's unwrapper: streamIngest.ingest appends each chunk
	rel      []record.Epoch      // reused release buffer (duty > 0)
	released uint64              // epochs released from the stream (duty=0 accounting)

	gate   *dutyGate
	feed   *sim.ReplayFeed
	cancel chan struct{}
	done   chan onlineOutcome

	stopped bool
	outcome *onlineOutcome
}

// startOnline builds the session and, at duty > 0, launches the replay
// engine against the incremental feed: the replay RunReplay runs, fed
// epoch by epoch instead of from a whole schedule.
func startOnline(opts streamOptions) *onlineSession {
	o := &onlineSession{
		duty:     opts.duty,
		detector: opts.detector,
		es:       record.NewEpochStream(opts.req.Threads),
	}
	if opts.duty == 0 {
		return o
	}
	o.gate = newDutyGate(opts.req, opts.duty, o.detector)
	o.feed = sim.NewReplayFeed()
	o.cancel = make(chan struct{})
	o.done = make(chan onlineOutcome, 1)
	eng := opts.replay.engine(sim.Config{
		ReplayFeed: o.feed,
		Observers:  []trace.Observer{o.gate},
		OnEpoch:    o.gate.onEpoch,
		Cancel:     o.cancel,
	})
	go func() {
		res, err := eng.Run()
		o.done <- onlineOutcome{res: res, err: err}
	}()
	return o
}

// release hands the epochs a decoded chunk made final to the replay feed in
// one Append; at duty=0 it only counts them, with Discard, which neither
// merges nor builds them. The stream handler calls it once per chunk.
// Releasing per chunk instead of per entry changes no counter a progress
// frame reports: at a chunk boundary the watermark is the same either way,
// so the released set is the same.
func (o *onlineSession) release() {
	if o.feed == nil {
		o.released += uint64(o.es.Discard())
		return
	}
	o.rel = o.es.Release(o.rel[:0])
	o.feed.Append(o.rel...)
}

// finish closes the feed after a complete stream and waits for the replay
// verdict, bounded by the session timeout and the client's continued
// presence. Only called once, after every byte has been ingested.
func (o *onlineSession) finish(clientGone <-chan struct{}, timeout time.Duration) (*onlineOutcome, int, string, error) {
	if o.feed == nil {
		o.released += uint64(o.es.Pending()) // duty=0: nothing replayed
		return &onlineOutcome{}, 0, "", nil
	}
	o.feed.Append(o.es.Flush()...)
	o.feed.CloseFeed()
	select {
	case out := <-o.done:
		o.outcome = &out
		return &out, 0, "", nil
	case <-time.After(timeout):
		o.halt()
		return nil, http.StatusGatewayTimeout, codeTimeout,
			fmt.Errorf("online replay exceeded the %v timeout", timeout)
	case <-clientGone:
		o.halt()
		return nil, statusClientGone, "", fmt.Errorf("client disconnected awaiting the online verdict")
	}
}

// halt cancels the engine and joins its goroutine; idempotent, safe on every
// exit path (the handler defers stop, which calls halt unless finish already
// collected the outcome).
func (o *onlineSession) halt() {
	if o.feed == nil || o.stopped {
		return
	}
	o.stopped = true
	close(o.cancel)
	if o.outcome == nil {
		out := <-o.done
		o.outcome = &out
	}
}

// stop is the deferred cleanup: a session that already finished is a no-op;
// an aborted one (ingest error, client gone mid-stream) cancels the engine
// so no goroutine outlives its handler.
func (o *onlineSession) stop() {
	if o.outcome == nil {
		o.halt()
	}
}

// summary renders the deterministic online block, given the replay's
// verdict (see replayVerdict): an empty divergence means the replay
// completed.
func (o *onlineSession) summary(divergence string) *OnlineSummary {
	s := &OnlineSummary{Detector: o.detector, Duty: o.duty, Completed: divergence == "", Divergence: divergence}
	if o.feed == nil { // duty=0: ingest-only accounting
		s.EpochsTotal = o.released
		return s
	}
	g := o.gate
	s.EpochsTotal = g.total
	s.EpochsObserved = g.observed
	if g.total > 0 {
		s.CoveragePct = math.Round(float64(g.observed)/float64(g.total)*10000) / 100
	}
	s.AccessesObserved = g.accesses
	races := g.det.Races()
	s.RacesSoFar = len(races)
	s.RacyAccesses = g.det.RaceCount()
	s.Races = raceStrings(races)
	return s
}

// progressEveryBytes paces the no-news progress frames: with no new races to
// report, a frame is emitted at most once per this many ingested bytes.
const progressEveryBytes = 1 << 20

// frameWriter emits the newline-delimited progress/error frames of an online
// session ahead of the indented summary. Writing mid-request requires
// full-duplex HTTP; where the transport cannot interleave (EnableFullDuplex
// fails), frames are suppressed and the session degrades to summary-only.
type frameWriter struct {
	w      http.ResponseWriter
	rc     *http.ResponseController
	duplex bool
	wrote  bool  // a frame reached the wire: the 200 status is committed
	since  int64 // bytes ingested since the last frame
}

func newFrameWriter(w http.ResponseWriter, rc *http.ResponseController) *frameWriter {
	fw := &frameWriter{w: w, rc: rc}
	fw.duplex = rc.EnableFullDuplex() == nil
	return fw
}

// progress emits one chunk-boundary frame when there is something to say:
// new races always flush immediately (that is the point of online
// detection); otherwise frames are paced by progressEveryBytes.
func (fw *frameWriter) progress(o *onlineSession, ing *streamIngest, bytesIn int64, chunk int) {
	if fw == nil || !fw.duplex {
		return
	}
	fw.since += int64(chunk)
	var snap progressSnap
	if o.gate != nil {
		snap = o.gate.snapshot()
	} else {
		snap.total = o.released
	}
	if len(snap.newRaces) == 0 && fw.since < progressEveryBytes {
		return
	}
	fw.emit(progressFrame{
		Frame:          "progress",
		Schema:         SchemaVersion,
		Frames:         ing.frames(),
		Bytes:          bytesIn,
		Epochs:         snap.total,
		EpochsObserved: snap.observed,
		RacesSoFar:     snap.races,
		NewRaces:       snap.newRaces,
	})
	fw.since = 0
}

// fail emits the terminal error frame; only meaningful once wrote is set
// (before that, the handler still owns the status line).
func (fw *frameWriter) fail(code string, err error) {
	fw.emit(errorFrame{Frame: "error", Schema: SchemaVersion, Code: code, Error: err.Error()})
}

func (fw *frameWriter) emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		return // frame structs always marshal
	}
	if !fw.wrote {
		fw.w.Header().Set("Content-Type", "application/json; charset=utf-8")
	}
	fw.w.Write(append(b, '\n'))
	fw.rc.Flush()
	fw.wrote = true
}
