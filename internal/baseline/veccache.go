package baseline

import (
	"fmt"

	"cord/internal/cache"
	"cord/internal/clock"
	"cord/internal/memsys"
	"cord/internal/trace"
)

// Bound selects the timestamp-storage limit of a vector-clock configuration
// (§4.3): unlimited caches, the L2, or only the L1.
type Bound int

// The storage bounds of Figs. 14–15.
const (
	BoundInf Bound = iota
	BoundL2
	BoundL1
)

// String names the bound.
func (b Bound) String() string {
	switch b {
	case BoundInf:
		return "InfCache"
	case BoundL2:
		return "L2Cache"
	default:
		return "L1Cache"
	}
}

func (b Bound) geometry() (cache.Config, bool) {
	switch b {
	case BoundL2:
		return cache.L2, true
	case BoundL1:
		return cache.L1, true
	default:
		return cache.Config{}, false
	}
}

// vecEntry is one timestamp slot of a cached line in a vector-clock scheme:
// a full vector timestamp plus per-word read/write bits.
type vecEntry struct {
	vc        clock.Vector
	readMask  uint16
	writeMask uint16
	valid     bool
}

func (e *vecEntry) has(word int, kind trace.Kind) bool {
	if kind == trace.Read {
		return e.readMask&(1<<word) != 0
	}
	return e.writeMask&(1<<word) != 0
}

func (e *vecEntry) set(word int, kind trace.Kind) {
	if kind == trace.Read {
		e.readMask |= 1 << word
	} else {
		e.writeMask |= 1 << word
	}
}

// vecLine is the per-line payload: up to two vector-timestamped history
// slots (slot 0 newest), as in the InfCache/L2Cache/L1Cache configurations,
// and the line's exclusive (E/M) bit: set, no other cache holds the line.
type vecLine struct {
	hist [2]vecEntry
	excl bool
}

// VecConfig parameterizes a vector-clock baseline detector.
type VecConfig struct {
	Threads   int
	Procs     int
	Bound     Bound
	HistDepth int // 2 unless the per-line ablation asks for 1
}

// VecCache is the vector-clock, cache-bounded detector of Figs. 12–15. Like
// CORD it keeps two timestamps with per-word access bits per resident line,
// but timestamps are full vector clocks, so ordering is exact wherever
// history survives. It reports no races discovered through memory (same
// §2.5 reasoning), so of CORD's two whole-memory timestamps it keeps only
// the write one, which sync reads through memory join.
type VecCache struct {
	cfg      VecConfig
	vcs      []clock.Vector
	threadOf []int
	caches   []cache.Cache[vecLine]

	memWrite clock.Vector
	memHasW  bool

	races     []trace.Race
	raceCount int // racy accesses
	scratch   []vecConflict

	// freeVCs recycles the vectors of displaced history entries (slot
	// rotation, capacity evictions, and — via pendingFree — write
	// invalidations; together the per-access allocation hot spots).
	freeVCs []clock.Vector
	// pendingFree stages invalidation-dropped vectors within one access:
	// probe scratch still aliases them until the access completes, so they
	// join freeVCs only at the end of OnAccess, after the local stamp (the
	// only consumer of freeVCs) has run.
	pendingFree []clock.Vector

	// probeExclusive makes a hit on an exclusive line probe anyway; only
	// the differential test of the skip sets it.
	probeExclusive bool
}

type vecConflict struct {
	vc   clock.Vector
	kind trace.Kind
	proc int
}

// NewVecCache builds a vector-clock baseline detector.
func NewVecCache(cfg VecConfig) *VecCache {
	if cfg.Threads <= 0 {
		cfg.Threads = 4
	}
	if cfg.Procs <= 0 {
		cfg.Procs = 4
	}
	if cfg.HistDepth <= 0 || cfg.HistDepth > 2 {
		cfg.HistDepth = 2
	}
	d := &VecCache{
		cfg:      cfg,
		vcs:      makeVCs(cfg.Threads),
		threadOf: make([]int, cfg.Procs),
		memWrite: clock.NewVector(cfg.Threads),
	}
	geo, bounded := cfg.Bound.geometry()
	for p := 0; p < cfg.Procs; p++ {
		if bounded {
			d.caches = append(d.caches, cache.New[vecLine](geo))
		} else {
			d.caches = append(d.caches, cache.NewUnbounded[vecLine]())
		}
		d.threadOf[p] = p % cfg.Threads
	}
	return d
}

// Name implements trace.Observer.
func (d *VecCache) Name() string { return fmt.Sprintf("Vector/%s", d.cfg.Bound) }

// OnAccess implements trace.Observer.
func (d *VecCache) OnAccess(a trace.Access) trace.Report {
	proc := a.Proc
	if proc >= d.cfg.Procs {
		// A migration can put a thread on an engine processor beyond
		// this detector's count.
		proc %= d.cfg.Procs
	}
	d.threadOf[proc] = a.Thread
	my := d.vcs[a.Thread]
	line := memsys.LineOf(a.Addr)
	word := memsys.WordIndex(a.Addr)

	var rep trace.Report
	ls, present := d.caches[proc].Lookup(line)

	// Fast path mirrors CORD: a word already stamped in the newest slot in
	// the same mode, with the clock unchanged since, needs no re-check
	// (coherence guarantees remote writes would have invalidated the line).
	if present {
		if e := &ls.hist[0]; e.valid && e.has(word, a.Kind) && vcEqual(e.vc, my) {
			return rep
		}
	}

	// Probe remote caches for conflicts. A hit on an exclusive line skips
	// the probe, as a hit on an E or M line makes no bus transaction: no
	// other cache holds the line, since any other cache must miss, and so
	// probe and clear the bit, before it can hold it. The skipped probe
	// would have found nothing.
	var probe vecProbe
	if !present || !ls.excl || d.probeExclusive {
		probe = d.probeRemotes(proc, line, word, a.Kind)
	} else {
		d.scratch = d.scratch[:0]
	}
	// After a probe that found no remote holder, or a write whose probe
	// invalidated every remote copy, the line is exclusive here.
	excl := !probe.found || a.Kind == trace.Write

	racy := false
	for _, cf := range d.scratch {
		// cf happened before the current access iff every component of
		// its vector is covered by the current thread's clock.
		if !my.DominatesOrEqual(cf.vc) && a.Class == trace.Data {
			r := trace.Race{
				Addr:   a.Addr,
				First:  trace.Ref{Thread: d.threadOf[cf.proc], Kind: cf.kind, Seq: trace.SeqUnknown},
				Second: trace.Ref{Thread: a.Thread, Kind: a.Kind, Seq: a.Seq},
			}
			racy = true
			if len(d.races) < maxStoredRaces {
				d.races = append(d.races, r)
				rep.Races = append(rep.Races, r)
			}
		}
		// Acquire edge: a sync read joins the write timestamps it observes.
		// Unlike CORD, the vector scheme performs no clock update on data
		// races — it is a detector only (no order recording), and exact
		// vector ordering keeps later races visible instead of hiding them
		// behind a race-outcome update (this is what lets the InfCache
		// configuration track Ideal closely in Figs. 14-15).
		if a.Class == trace.Sync && a.Kind == trace.Read && cf.kind == trace.Write {
			my.Join(cf.vc)
		}
	}

	// Memory path: a data race that would be flagged through the
	// whole-memory timestamps is suppressed (§2.5); a sync read through
	// memory joins the memory write timestamp so synchronization through
	// displaced variables is never lost (the Fig. 6 scenario).
	if !present && !probe.found && a.Class == trace.Sync && a.Kind == trace.Read && d.memHasW {
		my.Join(d.memWrite)
	}

	if racy {
		d.raceCount++
	}

	// Stamp locally.
	if !present {
		nl := vecLine{excl: excl}
		nl.hist[0] = vecEntry{vc: d.cloneVC(my), valid: true}
		nl.hist[0].set(word, a.Kind)
		slot, victim := d.caches[proc].Insert(line)
		if victim != nil {
			d.flushLine(victim)
		}
		*slot = nl
	} else {
		// ls is still valid (Cache.Lookup's contract): probeRemotes
		// touched only the other processors' caches.
		ls.excl = excl
		d.stamp(ls, word, a.Kind, my)
	}

	// Vector clocks advance at synchronization writes only (mirroring
	// CORD's §2.4 rule); data accesses between syncs share a timestamp so
	// per-word bits accumulate in one history slot.
	if a.Class == trace.Sync && a.Kind == trace.Write {
		my.Tick(a.Thread)
	}

	// The access is complete: nothing aliases the invalidation-dropped
	// vectors any more, so they can finally be recycled.
	if len(d.pendingFree) > 0 {
		d.freeVCs = append(d.freeVCs, d.pendingFree...)
		d.pendingFree = d.pendingFree[:0]
	}
	return rep
}

func (d *VecCache) stamp(ls *vecLine, word int, kind trace.Kind, my clock.Vector) {
	n := &ls.hist[0]
	switch {
	case !n.valid:
		ls.hist[0] = vecEntry{vc: d.cloneVC(my), valid: true}
		ls.hist[0].set(word, kind)
	case vcEqual(n.vc, my):
		n.set(word, kind)
	default:
		if d.cfg.HistDepth >= 2 {
			d.absorbMem(ls.hist[1])
			d.freeVC(ls.hist[1])
			ls.hist[1] = ls.hist[0]
		} else {
			d.absorbMem(ls.hist[0])
			d.freeVC(ls.hist[0])
			ls.hist[1] = vecEntry{}
		}
		ls.hist[0] = vecEntry{vc: d.cloneVC(my), valid: true}
		ls.hist[0].set(word, kind)
	}
}

// cloneVC copies my into a recycled vector when one is available. History
// entries own their vectors exclusively (Clone on stamp, never shared), so
// a displaced entry's storage can be reused verbatim.
func (d *VecCache) cloneVC(my clock.Vector) clock.Vector {
	if n := len(d.freeVCs); n > 0 {
		c := d.freeVCs[n-1]
		d.freeVCs = d.freeVCs[:n-1]
		copy(c, my)
		return c
	}
	return my.Clone()
}

// freeVC recycles a displaced entry's vector. Only displacement paths may
// call it (stamp rotation, flushLine); invalidation-dropped vectors go
// through pendingFree instead, because the probe scratch of the in-flight
// access can still alias them.
func (d *VecCache) freeVC(e vecEntry) {
	if e.valid && e.vc != nil {
		d.freeVCs = append(d.freeVCs, e.vc)
	}
}

func vcEqual(a, b clock.Vector) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

type vecProbe struct {
	found bool
}

func (d *VecCache) probeRemotes(proc int, line memsys.Line, word int, kind trace.Kind) vecProbe {
	var res vecProbe
	d.scratch = d.scratch[:0]
	for q := 0; q < d.cfg.Procs; q++ {
		if q == proc {
			continue
		}
		ls, ok := d.caches[q].Peek(line)
		if !ok {
			continue
		}
		res.found = true
		ls.excl = false
		for i := range ls.hist {
			e := &ls.hist[i]
			if !e.valid {
				continue
			}
			if e.has(word, trace.Write) {
				d.scratch = append(d.scratch, vecConflict{vc: e.vc, kind: trace.Write, proc: q})
			}
			if kind == trace.Write && e.has(word, trace.Read) {
				d.scratch = append(d.scratch, vecConflict{vc: e.vc, kind: trace.Read, proc: q})
			}
		}
		if kind == trace.Write {
			// Invalidation drops the remote history outright: the memory
			// timestamps absorb *displaced* state only (§2.5 — capacity
			// evictions and history-slot rotation), never invalidations.
			// The conflicting words were just checked above; history for
			// other words is simply lost, which can only hide races, never
			// fabricate them. The dropped vectors are still aliased by the
			// scratch built above, so they are staged in pendingFree and
			// reach the free list only when the access finishes.
			for i := range ls.hist {
				if e := &ls.hist[i]; e.valid && e.vc != nil {
					d.pendingFree = append(d.pendingFree, e.vc)
				}
			}
			d.caches[q].Remove(line)
		}
	}
	return res
}

func (d *VecCache) absorbMem(e vecEntry) {
	if e.valid && e.writeMask != 0 {
		d.memWrite.Join(e.vc)
		d.memHasW = true
	}
}

func (d *VecCache) flushLine(ls *vecLine) {
	for i := range ls.hist {
		d.absorbMem(ls.hist[i])
		d.freeVC(ls.hist[i])
		ls.hist[i] = vecEntry{}
	}
}

// Migrate implements trace.Observer. The migration self-race problem applies
// to vector schemes too (§2.7.4): ticking the migrating thread's component
// "synchronizes" its new execution with the timestamps it left behind.
func (d *VecCache) Migrate(thread, proc int, instr uint64) {
	d.vcs[thread].Tick(thread)
}

// ThreadDone implements trace.Observer.
func (d *VecCache) ThreadDone(thread int, totalInstr uint64) {}

// Finish implements trace.Observer.
func (d *VecCache) Finish() {}

// Races returns the retained reported races.
func (d *VecCache) Races() []trace.Race { return d.races }

// RaceCount returns the number of racy accesses (the shared raw-race
// metric).
func (d *VecCache) RaceCount() int { return d.raceCount }

// ProblemDetected reports whether at least one race was reported.
func (d *VecCache) ProblemDetected() bool { return d.raceCount > 0 }
