package core

import (
	"fmt"

	"cord/internal/cache"
	"cord/internal/clock"
	"cord/internal/directory"
	"cord/internal/memsys"
	"cord/internal/record"
	"cord/internal/trace"
)

// The detector's fixed hardware, as the paper evaluates it. Timestamps live
// in each processor's L2 (cache.L2, §2.3–2.4). The cache walker (§2.7.5)
// runs every walkInterval observed accesses, a power of two so the cadence
// check is a mask, and retires timestamps more than staleAge behind the most
// advanced clock. Races beyond maxStoredRaces are counted but not retained.
const (
	walkInterval   = 4096
	staleAge       = clock.Window / 4
	maxStoredRaces = 16384
)

// Config parameterizes one CORD instance. The zero value is not valid; use
// DefaultConfig and override.
type Config struct {
	// Threads and Procs size the clock and cache arrays.
	Threads int
	Procs   int
	// D is the sync-read clock-update window of §2.6. 1 is the naive
	// scalar scheme; the paper's sweep uses 4, 16 and 256.
	D int
	// HistDepth is the number of timestamp slots per cache line (2 in the
	// paper; 1 is the Fig. 2 ablation).
	HistDepth int
	// NoUpdateOnDataRaces disables clock updates on data races (ablation
	// of the §2.4 "update on all races" decision).
	NoUpdateOnDataRaces bool
	// Record enables the order log.
	Record bool
	// Directory, when non-nil, counts the messages the §2.5
	// directory-coherence extension would send for this detector's
	// transactions: each probe is one request to the home node plus one
	// forward and one response per remote holder the probe finds, and each
	// memory-timestamp update is one message to the home. Detection is
	// unchanged, since the probe itself is the same. The counters live in a
	// separate object, not in Stats, because /v1/detect responses serialize
	// Stats and perfbench attaches a directory.New(procs) here.
	Directory *directory.Directory
}

// DefaultConfig is the paper's CORD configuration: 4 processors, D=16, two
// timestamps per line bounded by the 32 KB 8-way L2, recording on.
func DefaultConfig() Config {
	return Config{
		Threads:   4,
		Procs:     4,
		D:         16,
		HistDepth: 2,
		Record:    true,
	}
}

func (c Config) withDefaults() Config {
	if c.Threads <= 0 {
		c.Threads = 4
	}
	if c.Procs <= 0 {
		c.Procs = 4
	}
	if c.D <= 0 {
		c.D = 1
	}
	if c.HistDepth <= 0 || c.HistDepth > 2 {
		c.HistDepth = 2
	}
	return c
}

// Stats exposes the detector's internal activity counters. The json tags are
// the stable wire encoding used by exported run artifacts.
type Stats struct {
	Accesses        uint64 `json:"accesses"`
	FastPathHits    uint64 `json:"fast_path_hits"`
	FilterHits      uint64 `json:"filter_hits"`
	CheckRequests   uint64 `json:"check_requests"`
	MemTsBroadcasts uint64 `json:"mem_ts_broadcasts"`
	ClockChanges    uint64 `json:"clock_changes"`
	WalkerRetired   uint64 `json:"walker_retired"`
	StalledUpdates  uint64 `json:"stalled_updates"`
	ViaMemoryRaces  int    `json:"via_memory_races"`
	RaceCount       int    `json:"race_count"`   // racy accesses (>=1 reported conflict)
	RaceReports     int    `json:"race_reports"` // individual reported conflicts
}

// Detector is one CORD instance attached to an execution. It implements
// trace.Observer.
type Detector struct {
	cfg   Config
	label string

	clocks   []clock.Scalar
	threadOf []int // last thread observed per processor
	caches   []cache.Cache[lineState]
	mem      memTimestamps
	rec      *recorder

	races    []trace.Race
	scratch  []conflict
	minTs    clock.Scalar
	hasMinTs bool

	// Sliding-window maintenance (§2.7.5): the frontier is the most
	// advanced clock; walks trigger on frontier advance so that every
	// live scalar value stays within half a window of it.
	frontier     clock.Scalar
	walkFrontier clock.Scalar
	lastBoundary []uint64 // per-thread instruction boundary for forced bumps

	st Stats
}

type conflict struct {
	ts   clock.Scalar
	kind trace.Kind
	proc int
}

type probeResult struct {
	found     bool // some remote cache holds the line
	hasLineTs bool
	lineTs    clock.Scalar // max newest-entry timestamp among remote holders
	anyWrite  bool         // any remote write bit anywhere on the line
}

// initialClock is the clock value every thread starts from. Starting above
// zero keeps "no timestamp" distinguishable in diagnostics.
const initialClock clock.Scalar = 1

// New builds a CORD detector.
func New(cfg Config) *Detector {
	cfg = cfg.withDefaults()
	d := &Detector{
		cfg:      cfg,
		label:    fmt.Sprintf("CORD(D=%d)", cfg.D),
		clocks:   make([]clock.Scalar, cfg.Threads),
		threadOf: make([]int, cfg.Procs),
		rec:      newRecorder(cfg.Threads, cfg.Record, initialClock),
	}
	for i := range d.clocks {
		d.clocks[i] = initialClock
	}
	d.frontier = initialClock
	d.walkFrontier = initialClock
	d.lastBoundary = make([]uint64, cfg.Threads)
	for p := 0; p < cfg.Procs; p++ {
		d.caches = append(d.caches, cache.New[lineState](cache.L2))
		d.threadOf[p] = p % cfg.Threads
	}
	return d
}

// Name implements trace.Observer.
func (d *Detector) Name() string { return d.label }

// OnAccess implements trace.Observer: it runs the full CORD pipeline for one
// access — local lookup, fast path / filter check, race-check broadcast,
// clock comparison and update, order-log append, and timestamp stamping.
func (d *Detector) OnAccess(a trace.Access) trace.Report {
	d.st.Accesses++
	d.lastBoundary[a.Thread] = a.Instr + uint64(a.Instrs)
	// The cache walker runs both periodically and whenever the clock
	// frontier has advanced far enough that stale values approach the
	// sliding-window limit. Its memory-timestamp updates go into this
	// access's report.
	var memTs int32
	if d.st.Accesses%walkInterval == 0 ||
		clock.Dist(d.walkFrontier, d.frontier) > clock.Window/8 {
		memTs = d.walk()
	}

	proc := a.Proc
	if proc >= d.cfg.Procs {
		// A migration can put a thread on an engine processor beyond
		// this detector's count.
		proc %= d.cfg.Procs
	}
	d.threadOf[proc] = a.Thread
	c := d.clocks[a.Thread]
	line := memsys.LineOf(a.Addr)
	word := memsys.WordIndex(a.Addr)
	wk := wordRead
	if a.Kind == trace.Write {
		wk = wordWrite
	}

	// The report is built once, at each return, from memTs and these
	// locals, so it never lives in memory (DESIGN.md, implementation
	// note 13).
	var checks int32
	var races []trace.Race
	memSnap := d.mem

	ls, present := d.caches[proc].Lookup(line)

	isMiss := !present
	isUpgrade := present && a.Kind == trace.Write && ls.state == shared
	if present && !isUpgrade {
		// Coherence-silent hit: the access bits and filter bits decide
		// whether a race-check broadcast is needed (§2.7.2). The fast
		// path applies only while the line's newest timestamp equals the
		// thread's clock — once the clock moves on, the hit re-stamps the
		// line and re-checks (the "bursts of race check requests after
		// timestamp changes" of §4.1).
		if n := ls.newest(); n != nil && n.ts == c && n.has(word, wk) {
			d.st.FastPathHits++
			d.postSyncWrite(a)
			return trace.Report{MemTsUpdates: memTs}
		}
		if (a.Kind == trace.Read && ls.filterR) || (a.Kind == trace.Write && ls.filterW) {
			d.st.FilterHits++
			d.stamp(proc, ls, word, wk, c)
			d.postSyncWrite(a)
			return trace.Report{MemTsUpdates: memTs + d.memChanges(memSnap)}
		}
		checks = 1
		d.st.CheckRequests++
	}

	// Bus-visible transaction: probe every remote cache. Fetches and
	// upgrades ride the ordinary coherence traffic; explicit checks were
	// counted above.
	probe := d.probeRemotes(proc, line, word, wk, a.Kind == trace.Write, isMiss && a.Kind == trace.Read)

	// Compare the thread's clock against every conflicting timestamp found
	// (all comparisons use the pre-access clock, as the hardware comparator
	// sees all entries at once), collecting the mandated clock updates.
	newClock := c
	racyAccess := false
	bump := func(v clock.Scalar) {
		if newClock.Before(v) {
			newClock = v
		}
	}
	for _, cf := range d.scratch {
		if clock.Dist(cf.ts, c) <= 0 {
			// A race outcome. Clock updates happen on all races (§2.4);
			// the ablation switch skips updates on data races, which
			// sacrifices recording correctness exactly the way Fig. 3's
			// discussion predicts (the ablation bench quantifies it).
			if a.Class == trace.Sync || !d.cfg.NoUpdateOnDataRaces {
				bump(cf.ts.Add(1))
			}
		}
		if a.Class == trace.Data && !clock.SyncedBy(c, cf.ts, d.cfg.D) {
			racyAccess = true
			races = d.report(trace.Race{
				Addr:   a.Addr,
				First:  trace.Ref{Thread: d.threadOf[cf.proc], Kind: cf.kind, Seq: trace.SeqUnknown},
				Second: trace.Ref{Thread: a.Thread, Kind: a.Kind, Seq: a.Seq},
			}, races)
		}
		if a.Class == trace.Sync && a.Kind == trace.Read && cf.kind == trace.Write {
			// Sync-read rule (§2.6): lead the variable's write timestamp
			// by at least D.
			bump(cf.ts.Add(d.cfg.D))
		}
	}

	// Response timestamp: data responses (and check/upgrade snoop replies)
	// are tagged with the supplier line's newest timestamp and order the
	// requester after it (§2.7.2). This is what makes discarding remote
	// histories on invalidation safe.
	if probe.hasLineTs && clock.Dist(probe.lineTs, c) <= 0 {
		bump(probe.lineTs.Add(1))
	}

	// Memory path: a miss with no remote holder is answered by main memory
	// and compared against the main-memory timestamps (§2.5).
	if isMiss && !probe.found {
		d.memoryFetch(a, c, bump)
	}

	if newClock != c {
		d.setClock(a.Thread, newClock, a.Instr)
	}

	// Stamp the access into the local line (installing it on a miss).
	if isMiss {
		st := shared
		if a.Kind == trace.Write || !probe.found {
			st = owned
		}
		nl := lineState{state: st}
		nl.hist[0] = histEntry{ts: newClock, valid: true}
		nl.hist[0].set(word, wk)
		d.setFilters(&nl, a.Kind, probe)
		// nl is stored whole, once: filled field by field through the
		// slot, this path measured slower (DESIGN.md, implementation
		// note 14).
		slot, victim := d.caches[proc].Insert(line)
		if victim != nil {
			d.flushLine(victim)
		}
		*slot = nl
	} else {
		// ls from the Lookup above is still valid (Cache.Lookup's
		// contract): since then only other processors' caches were probed
		// or invalidated, and memoryFetch and setClock touch no cache.
		if isUpgrade {
			ls.state = owned
		}
		d.setFilters(ls, a.Kind, probe)
		d.stamp(proc, ls, word, wk, newClock)
	}

	d.postSyncWrite(a)

	if racyAccess {
		d.st.RaceCount++
	}
	return trace.Report{Races: races, CheckRequests: checks, MemTsUpdates: memTs + d.memChanges(memSnap)}
}

// memChanges counts how many of the two main-memory timestamp registers
// changed since the snapshot — each change is one broadcast transaction
// (§2.5); multiple absorptions within one access coalesce into the final
// register value.
func (d *Detector) memChanges(snap memTimestamps) int32 {
	n := int32(0)
	if d.mem.hasRead != snap.hasRead || d.mem.read != snap.read {
		n++
	}
	if d.mem.hasWrite != snap.hasWrite || d.mem.write != snap.write {
		n++
	}
	d.st.MemTsBroadcasts += uint64(n)
	if d.cfg.Directory != nil {
		// Under a directory the updates are single messages to the home
		// node rather than bus broadcasts.
		d.cfg.Directory.MemTsUpdate(int(n))
	}
	return n
}

// postSyncWrite applies the clock increment that follows every
// synchronization write (§2.4), on whichever path the access took. The
// increment happens *after* the write, so the epoch boundary in the log
// falls after the in-flight instruction (a.Instrs = 1 for a committed
// store, 0 for the sub-instruction store of a test-and-set).
func (d *Detector) postSyncWrite(a trace.Access) {
	if a.Class != trace.Sync || a.Kind != trace.Write {
		return
	}
	d.setClock(a.Thread, d.clocks[a.Thread].Add(1), a.Instr+uint64(a.Instrs))
}

// memoryFetch applies the main-memory timestamp rules for a miss served by
// memory: the comparison orders the requester after the relevant memory
// timestamp, sync reads apply the D rule, and any data race discovered this
// way is suppressed (counted but never reported, §2.5).
func (d *Detector) memoryFetch(a trace.Access, c clock.Scalar, bump func(clock.Scalar)) {
	check := func(ts clock.Scalar, ok bool) {
		if !ok {
			return
		}
		if clock.Dist(ts, c) <= 0 {
			bump(ts.Add(1))
		}
		if a.Class == trace.Data && !clock.SyncedBy(c, ts, d.cfg.D) {
			d.st.ViaMemoryRaces++
		}
	}
	check(d.mem.write, d.mem.hasWrite)
	if a.Kind == trace.Write {
		check(d.mem.read, d.mem.hasRead)
	}
	if a.Class == trace.Sync && a.Kind == trace.Read && d.mem.hasWrite {
		bump(d.mem.write.Add(d.cfg.D))
	}
}

// setFilters grants check-filter permissions after a bus transaction
// revealed the remote state of the line (§2.7.2).
func (d *Detector) setFilters(ls *lineState, kind trace.Kind, probe probeResult) {
	if kind == trace.Write {
		// Remote copies were invalidated: nothing remote remains.
		ls.filterR, ls.filterW = true, true
		return
	}
	ls.filterR = !probe.anyWrite
	if !probe.found {
		// No remote holder at all: the line is exclusively ours and
		// even writes need no further checks until someone fetches it.
		ls.filterW = true
	}
}

// probeRemotes snoops every other processor's cache for the line: it
// collects conflicting per-word timestamps into d.scratch, the response
// (newest) timestamp, and the bit summaries used for filter decisions; it
// clears the remote filter bits, applies invalidations for writes, and
// downgrades owners on read fetches. The remote holders it finds are the
// caches a directory would forward the request to, so an attached
// Directory counts them.
func (d *Detector) probeRemotes(proc int, line memsys.Line, word int, wk wordKind, invalidate, downgrade bool) probeResult {
	var res probeResult
	d.scratch = d.scratch[:0]
	holders := 0
	for q := range d.caches {
		if q == proc {
			continue
		}
		ls, ok := d.caches[q].Peek(line)
		if !ok {
			continue
		}
		holders++
		res.found = true
		ls.filterR, ls.filterW = false, false
		for i := range ls.hist {
			e := &ls.hist[i]
			if !e.valid {
				continue
			}
			if e.writeMask != 0 {
				res.anyWrite = true
			}
			if i == 0 {
				if !res.hasLineTs || res.lineTs.Before(e.ts) {
					res.lineTs, res.hasLineTs = e.ts, true
				}
			}
			if e.has(word, wordWrite) {
				d.scratch = append(d.scratch, conflict{ts: e.ts, kind: trace.Write, proc: q})
			}
			if wk == wordWrite && e.has(word, wordRead) {
				d.scratch = append(d.scratch, conflict{ts: e.ts, kind: trace.Read, proc: q})
			}
		}
		if invalidate {
			// The requester's clock is ordered after the line's newest
			// timestamp by the response rule, so the discarded history
			// needs no memory-timestamp update.
			d.caches[q].Remove(line)
		} else if downgrade && ls.state == owned {
			ls.state = shared
		}
	}
	if d.cfg.Directory != nil {
		d.cfg.Directory.Request(holders)
	}
	return res
}

// stamp records the access in the local line's history at timestamp ts,
// rotating in a fresh timestamp slot when the clock has moved on (§2.3) and
// spilling the displaced slot into the main-memory timestamps.
func (d *Detector) stamp(proc int, ls *lineState, word int, wk wordKind, ts clock.Scalar) {
	n := ls.newest()
	switch {
	case n == nil:
		ls.hist[0] = histEntry{ts: ts, valid: true}
		ls.hist[0].set(word, wk)
	case n.ts == ts:
		n.set(word, wk)
	case n.ts.Before(ts):
		// Rotate: the oldest slot spills to the memory timestamps and the
		// new timestamp takes the newest slot with clear bits (Fig. 2).
		if d.cfg.HistDepth >= 2 {
			d.mem.absorb(ls.hist[1])
			ls.hist[1] = ls.hist[0]
		} else {
			d.mem.absorb(ls.hist[0])
			ls.hist[1] = histEntry{}
		}
		ls.hist[0] = histEntry{ts: ts, valid: true}
		ls.hist[0].set(word, wk)
	default:
		// ts < newest: only possible after a migration left newer
		// timestamps on this processor; fold into the newest slot
		// (conservative: claims a later timestamp, which can only add
		// ordering, never lose it).
		n.set(word, wk)
	}
}

// flushLine spills both history slots of a displaced line into the memory
// timestamps (§2.5).
func (d *Detector) flushLine(ls *lineState) {
	for i := range ls.hist {
		d.mem.absorb(ls.hist[i])
	}
}

// setClock moves a thread's clock forward, guarding the sliding window and
// informing the order recorder.
func (d *Detector) setClock(thread int, v clock.Scalar, instr uint64) {
	if d.hasMinTs && clock.Dist(d.minTs, v) > clock.Window {
		// The hardware would stall this update until the walker retires
		// the oldest timestamp (§2.7.5); the simulator counts the event
		// and proceeds (the walker runs eagerly enough that the count
		// stays zero in practice — asserted by tests).
		d.st.StalledUpdates++
	}
	d.clocks[thread] = v
	d.frontier = clock.MaxScalar(d.frontier, v)
	d.st.ClockChanges++
	d.rec.clockChanged(thread, v, instr)
}

// report counts and retains r, and returns races with r appended while the
// retained list has room.
func (d *Detector) report(r trace.Race, races []trace.Race) []trace.Race {
	d.st.RaceReports++
	if len(d.races) < maxStoredRaces {
		d.races = append(d.races, r)
		races = append(races, r)
	}
	return races
}

// walk is the cache walker of §2.7.5: it retires timestamps that have fallen
// staleAge behind the most advanced clock (spilling them into the memory
// timestamps), recomputes the minimum resident timestamp, and refreshes
// memory timestamps that would otherwise exit the sliding window. It returns
// the number of memory-timestamp updates it made.
func (d *Detector) walk() int32 {
	maxClk := d.clocks[0]
	for _, c := range d.clocks[1:] {
		maxClk = clock.MaxScalar(maxClk, c)
	}
	d.walkFrontier = maxClk
	// A thread whose clock has fallen half a window behind the frontier
	// would soon compare incorrectly against fresh timestamps; advance it
	// (adding ordering is always safe, and no detectable race spans half
	// the window for any realistic D — the paper's stall, realized as a
	// forced synchronization). The log records the change so replay stays
	// exact.
	for t := range d.clocks {
		if clock.Dist(d.clocks[t], maxClk) > clock.Window/2 {
			d.setClock(t, maxClk.Add(-clock.Window/2), d.lastBoundary[t])
		}
	}
	memSnap := d.mem
	var minTs clock.Scalar
	hasMin := false
	for q := range d.caches {
		d.caches[q].ForEach(func(l memsys.Line, ls *lineState) {
			for i := range ls.hist {
				e := &ls.hist[i]
				if !e.valid {
					continue
				}
				if clock.Dist(e.ts, maxClk) > staleAge {
					d.mem.absorb(*e)
					*e = histEntry{}
					d.st.WalkerRetired++
					continue
				}
				if !hasMin || e.ts.Before(minTs) {
					minTs, hasMin = e.ts, true
				}
			}
			if !ls.hist[0].valid && ls.hist[1].valid {
				ls.hist[0], ls.hist[1] = ls.hist[1], histEntry{}
			}
		})
	}
	memTs := d.memChanges(memSnap)
	d.minTs, d.hasMinTs = minTs, hasMin
	// Keep the memory timestamps inside the window relative to the most
	// advanced clock; advancing them is always safe (it only adds
	// ordering).
	refresh := func(ts *clock.Scalar, has bool) {
		if has && clock.Dist(*ts, maxClk) > clock.Window/2 {
			*ts = maxClk.Add(-clock.Window / 2)
			memTs++
			d.st.MemTsBroadcasts++
		}
	}
	refresh(&d.mem.read, d.mem.hasRead)
	refresh(&d.mem.write, d.mem.hasWrite)
	return memTs
}

// Migrate implements trace.Observer: beginning to run on a (different)
// processor bumps the thread's clock by D so new execution is synchronized
// with whatever timestamps the thread left behind (§2.7.4).
func (d *Detector) Migrate(thread, proc int, instr uint64) {
	d.setClock(thread, d.clocks[thread].Add(d.cfg.D), instr)
}

// ThreadDone implements trace.Observer.
func (d *Detector) ThreadDone(thread int, totalInstr uint64) {
	d.rec.threadDone(thread, totalInstr)
}

// Finish implements trace.Observer.
func (d *Detector) Finish() {}

// Races returns the retained reported data races (never includes suppressed
// via-memory detections).
func (d *Detector) Races() []trace.Race { return d.races }

// RaceCount returns the number of racy accesses — accesses for which at
// least one data race was reported (the raw-race metric shared with the
// other detectors).
func (d *Detector) RaceCount() int { return d.st.RaceCount }

// ProblemDetected reports whether at least one data race was reported — the
// paper's problem-detection criterion (§4.2).
func (d *Detector) ProblemDetected() bool { return d.st.RaceCount > 0 }

// Log returns the order log (empty unless Record was set).
func (d *Detector) Log() *record.Log { return &d.rec.log }

// Stats returns the activity counters.
func (d *Detector) Stats() Stats { return d.st }

// Clock returns a thread's current logical clock (for tests).
func (d *Detector) Clock(thread int) clock.Scalar { return d.clocks[thread] }
