package baseline

import (
	"cord/internal/clock"
	"cord/internal/trace"
)

// FastTrackConfig parameterizes the FastTrack baseline detector.
type FastTrackConfig struct {
	// Threads is the simulated thread count (default 4).
	Threads int
	// Shards is ignored: the shadow memory is one unsharded table.
	//
	// Deprecated: kept only so existing callers that set it still compile.
	Shards int
}

// FastTrack is a FastTrack-style epoch detector (Flanagan & Freund, PLDI
// 2009): the third baseline next to Ideal and the vector-clock cache
// schemes, and the metadata-lean software point of comparison for the
// paper's detection-rate claims. Per data word it keeps the last-write
// epoch — a single (clock, thread) pair — and an adaptive read
// representation that stays an epoch while reads are totally ordered and
// inflates to a full vector only when they become concurrent, so the common
// case costs O(1) time and two words of shadow state instead of a vector
// comparison.
//
// The happens-before model matches the repository's other
// release-consistency detectors (VecCache, Ideal): a thread's clock
// component advances at its synchronization writes (releases), a sync read
// acquires by joining the sync variable's last-release vector, and data
// accesses never advance clocks. Because FastTrack's shadow state remembers
// strictly less history than Ideal's full per-access log under the same
// ordering relation, it can only miss races Ideal sees — every race it does
// report is confirmed by Ideal.Confirms (the no-false-positive invariant
// the campaign enforces).
//
// Like every trace.Observer, FastTrack is called once per shared-memory
// access, in global order, from one goroutine: it takes no locks and is not
// safe for concurrent use, and its output is a pure function of the access
// order.
type FastTrack struct {
	threads int
	vcs     []clock.Vector
	shadow  *shadowMem

	raceCount int  // racy accesses (the shared raw-race metric)
	full      bool // the retained-race cap has been reached
	races     []trace.Race
}

// NewFastTrack builds a FastTrack detector for the given configuration.
func NewFastTrack(cfg FastTrackConfig) *FastTrack {
	if cfg.Threads <= 0 {
		cfg.Threads = 4
	}
	return &FastTrack{
		threads: cfg.Threads,
		vcs:     makeVCs(cfg.Threads),
		shadow:  &shadowMem{},
	}
}

// Name implements trace.Observer.
func (d *FastTrack) Name() string { return "FastTrack" }

// OnAccess implements trace.Observer.
func (d *FastTrack) OnAccess(a trace.Access) trace.Report {
	my := d.vcs[a.Thread]
	var rep trace.Report

	if a.Class == trace.Sync {
		s := d.shadow.sync(a.Addr, d.threads)
		if a.Kind == trace.Read {
			my.Join(s) // acquire: ordered after the observed release
		} else {
			copy(s, my) // release: publish, then open a new epoch
			my.Tick(a.Thread)
		}
		return rep
	}

	w := d.shadow.word(a.Addr)
	var racy bool
	if a.Kind == trace.Read {
		racy = d.onRead(a, my, w, &rep)
	} else {
		racy = d.onWrite(a, my, w, &rep)
	}

	if racy {
		d.raceCount++
		if len(rep.Races) > 0 {
			d.store(rep.Races)
		}
	}
	return rep
}

// onRead handles a data read: a race check against the last write, then the
// read history absorbs this access (epoch takeover, in-place vector update,
// or inflation).
func (d *FastTrack) onRead(a trace.Access, my clock.Vector, w *ftWord, rep *trace.Report) bool {
	c := my[a.Thread]
	// Same-epoch fast path: this thread already read the word in the
	// current epoch, so nothing below can change.
	if w.readVec == nil && w.read.thread == int32(a.Thread) && w.read.clock == c {
		return false
	}
	if w.readVec != nil && w.readVec[a.Thread] == c {
		return false
	}

	racy := false
	if w.write.thread != epochNone && w.write.thread != int32(a.Thread) &&
		my[w.write.thread] < w.write.clock {
		d.report(a, int(w.write.thread), trace.Write, rep)
		racy = true
	}

	switch {
	case w.readVec != nil:
		w.readVec[a.Thread] = c
	case w.read.thread == epochNone || w.read.thread == int32(a.Thread) ||
		my[w.read.thread] >= w.read.clock:
		// Exclusive: the previous read (if any) is ordered before this one,
		// so a single epoch still summarizes the read history.
		w.read = ftEpoch{clock: c, thread: int32(a.Thread)}
	default:
		// Concurrent reads: inflate to the vector representation.
		v := d.shadow.inflate(w, d.threads)
		v[w.read.thread] = w.read.clock
		v[a.Thread] = c
		w.read = ftEpoch{thread: epochNone}
	}
	return racy
}

// onWrite handles a data write: race checks against the last write and the
// full read state, then the word becomes write-exclusive to this epoch (a
// read-shared word deflates).
func (d *FastTrack) onWrite(a trace.Access, my clock.Vector, w *ftWord, rep *trace.Report) bool {
	c := my[a.Thread]
	// Same-epoch fast path: this thread already wrote the word in the
	// current epoch.
	if w.write.thread == int32(a.Thread) && w.write.clock == c {
		return false
	}

	racy := false
	if w.write.thread != epochNone && w.write.thread != int32(a.Thread) &&
		my[w.write.thread] < w.write.clock {
		d.report(a, int(w.write.thread), trace.Write, rep)
		racy = true
	}
	if w.readVec != nil {
		for t, rc := range w.readVec {
			if rc != 0 && t != a.Thread && my[t] < rc {
				d.report(a, t, trace.Read, rep)
				racy = true
			}
		}
		d.shadow.deflate(w)
		w.read = ftEpoch{thread: epochNone}
	} else if w.read.thread != epochNone && w.read.thread != int32(a.Thread) &&
		my[w.read.thread] < w.read.clock {
		d.report(a, int(w.read.thread), trace.Read, rep)
		racy = true
	}
	w.write = ftEpoch{clock: c, thread: int32(a.Thread)}
	return racy
}

// report appends a race to the access's report unless the retained-race cap
// is already reached (mirroring Ideal: once full, only counters advance, so
// the steady state allocates nothing).
func (d *FastTrack) report(a trace.Access, thread int, kind trace.Kind, rep *trace.Report) {
	if d.full {
		return
	}
	rep.Races = append(rep.Races, raceOf(a, thread, kind))
}

func raceOf(a trace.Access, thread int, kind trace.Kind) trace.Race {
	return trace.Race{
		Addr:   a.Addr,
		First:  trace.Ref{Thread: thread, Kind: kind, Seq: trace.SeqUnknown},
		Second: trace.Ref{Thread: a.Thread, Kind: a.Kind, Seq: a.Seq},
	}
}

// store retains races up to the cap.
func (d *FastTrack) store(rs []trace.Race) {
	for _, r := range rs {
		if len(d.races) >= maxStoredRaces {
			d.full = true
			break
		}
		d.races = append(d.races, r)
	}
}

// Migrate implements trace.Observer. Shadow state is keyed by thread, not
// processor, so migration needs no action (same reasoning as Ideal).
func (d *FastTrack) Migrate(thread, proc int, instr uint64) {}

// ThreadDone implements trace.Observer.
func (d *FastTrack) ThreadDone(thread int, totalInstr uint64) {}

// Finish implements trace.Observer.
func (d *FastTrack) Finish() {}

// Races returns the retained detected races in detection order.
func (d *FastTrack) Races() []trace.Race { return d.races }

// RaceCount returns the number of racy accesses — accesses with at least
// one conflicting, unordered predecessor (the shared raw-race metric).
func (d *FastTrack) RaceCount() int { return d.raceCount }

// ProblemDetected reports whether the run exposed at least one data race.
func (d *FastTrack) ProblemDetected() bool { return d.raceCount > 0 }

// MetadataWords returns the live shadow-state footprint in words — the
// FastTrack paper's metadata metric: one word per write/read epoch, a full
// vector per sync variable and per read-inflated word. It is a pure
// function of the access history.
func (d *FastTrack) MetadataWords() int { return d.shadow.metaWords }
