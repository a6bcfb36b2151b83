package baseline

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"

	"cord/internal/clock"
	"cord/internal/memsys"
	"cord/internal/progen"
	"cord/internal/sim"
	"cord/internal/trace"
	"cord/internal/workload"
)

// oracleAccess is one remembered data access with its vector-clock snapshot.
type oracleAccess struct {
	thread int
	kind   trace.Kind
	seq    uint64
	vc     clock.Vector
}

// idealOracle is the reference Ideal is checked against: the ground-truth
// detector (§4.2's Ideal configuration) as it stood before its history moved
// into one slab of epoch-only entries — full vector clocks, one map entry per
// word holding a slice of every retained access with its vector-clock
// snapshot, walked end to end on each data access, entries recycled only once
// they can no longer participate in a race. It shares pairKey, syncWord and
// makeVCs with Ideal; everything that decides which pairs race is its own.
type idealOracle struct {
	threads int
	vcs     []clock.Vector
	syncs   map[memsys.Addr]*syncWord
	hist    map[memsys.Addr][]oracleAccess

	races     []trace.Race
	raceCount int // racy accesses (>=1 conflicting unordered predecessor)
	pairs     map[pairKey]bool
	maxPairs  int

	accesses      uint64
	pruneInterval uint64

	// freeVCs recycles the vector-clock storage of pruned history entries.
	// Every data access clones the thread's vector into its history entry;
	// without recycling that is the campaign's single largest allocation
	// site (half of all objects in a detection run).
	freeVCs []clock.Vector
}

// newIdealOracle builds the oracle for the given thread count.
func newIdealOracle(threads int) *idealOracle {
	return &idealOracle{
		threads:       threads,
		vcs:           makeVCs(threads),
		syncs:         make(map[memsys.Addr]*syncWord),
		hist:          make(map[memsys.Addr][]oracleAccess),
		pairs:         make(map[pairKey]bool),
		maxPairs:      1 << 20,
		pruneInterval: 8192,
	}
}

func (d *idealOracle) OnAccess(a trace.Access) trace.Report {
	d.accesses++
	if d.accesses%d.pruneInterval == 0 {
		d.prune()
	}
	my := d.vcs[a.Thread]
	var rep trace.Report
	if a.Class == trace.Sync {
		d.onSync(a, my)
	} else {
		d.onData(a, my, &rep)
	}
	my.Tick(a.Thread)
	return rep
}

// onSync applies the acquire/release happens-before edges.
func (d *idealOracle) onSync(a trace.Access, my clock.Vector) {
	s := d.syncs[a.Addr]
	if s == nil {
		s = &syncWord{lastWrite: clock.NewVector(d.threads)}
		d.syncs[a.Addr] = s
	}
	if a.Kind == trace.Read {
		my.Join(s.lastWrite) // acquire: ordered after the observed release
		return
	}
	copy(s.lastWrite, my) // release: publish the writer's history
}

// onData checks the access against the full per-word history: every
// conflicting earlier access not ordered before the current thread's vector
// clock is a data race.
func (d *idealOracle) onData(a trace.Access, my clock.Vector, rep *trace.Report) {
	entries := d.hist[a.Addr]
	racy := false
	for i := range entries {
		e := &entries[i]
		if e.thread == a.Thread {
			continue
		}
		if a.Kind == trace.Read && e.kind == trace.Read {
			continue
		}
		// e happened before the current access iff the current thread has
		// seen e's local time (epoch comparison).
		if my[e.thread] >= e.vc[e.thread] {
			continue
		}
		r := trace.Race{
			Addr:   a.Addr,
			First:  trace.Ref{Thread: e.thread, Kind: e.kind, Seq: e.seq},
			Second: trace.Ref{Thread: a.Thread, Kind: a.Kind, Seq: a.Seq},
		}
		racy = true
		if len(d.races) < maxStoredRaces {
			d.races = append(d.races, r)
			rep.Races = append(rep.Races, r)
		}
		if len(d.pairs) < d.maxPairs {
			d.pairs[pairKey{a.Addr, a.Seq, e.thread, e.kind}] = true
		}
	}
	if racy {
		d.raceCount++
	}
	d.hist[a.Addr] = append(entries, oracleAccess{
		thread: a.Thread, kind: a.Kind, seq: a.Seq, vc: d.cloneVC(my),
	})
}

// cloneVC copies v into a recycled vector when one is available, and
// allocates otherwise. History entries own their vectors exclusively, so a
// vector freed by prune can be reused verbatim.
func (d *idealOracle) cloneVC(v clock.Vector) clock.Vector {
	if n := len(d.freeVCs); n > 0 {
		c := d.freeVCs[n-1]
		d.freeVCs = d.freeVCs[:n-1]
		copy(c, v)
		return c
	}
	return v.Clone()
}

// prune recycles history entries that are ordered before every thread's
// current clock — they can never race again (§3.2's Ideal bookkeeping).
func (d *idealOracle) prune() {
	min := d.vcs[0].Clone()
	for _, vc := range d.vcs[1:] {
		for i, v := range vc {
			if v < min[i] {
				min[i] = v
			}
		}
	}
	for addr, entries := range d.hist {
		out := entries[:0]
		for _, e := range entries {
			if e.vc[e.thread] > min[e.thread] {
				out = append(out, e)
			} else {
				d.freeVCs = append(d.freeVCs, e.vc)
			}
		}
		if len(out) == 0 {
			delete(d.hist, addr)
			continue
		}
		d.hist[addr] = out
	}
}

// idealDiff fans one access stream out to Ideal, the oracle and FastTrack.
// It compares every access's Report.Races as the stream runs and keeps the
// first mismatch; check compares the end state. Mismatches are recorded,
// not fatal, because the engine delivers accesses on thread coroutines.
type idealDiff struct {
	got  *Ideal
	want *idealOracle
	ft   *FastTrack
	diff string
}

func newIdealDiff(threads int, pruneInterval uint64) *idealDiff {
	p := &idealDiff{
		got:  NewIdeal(threads),
		want: newIdealOracle(threads),
		ft:   NewFastTrack(FastTrackConfig{Threads: threads}),
	}
	p.got.pruneInterval = pruneInterval
	p.want.pruneInterval = pruneInterval
	return p
}

func (p *idealDiff) Name() string { return "ideal-diff" }

func (p *idealDiff) OnAccess(a trace.Access) trace.Report {
	got := p.got.OnAccess(a)
	want := p.want.OnAccess(a)
	p.ft.OnAccess(a)
	if p.diff == "" && !slices.Equal(got.Races, want.Races) {
		p.diff = fmt.Sprintf("access %v reported %s, oracle %s", a, firstRefs(got.Races), firstRefs(want.Races))
	}
	return got
}

// firstRefs lists each race's first access, the part a report can get wrong.
func firstRefs(rs []trace.Race) string {
	s := "["
	for _, r := range rs {
		s += fmt.Sprintf(" T%d %v #%d", r.First.Thread, r.First.Kind, r.First.Seq)
	}
	return s + " ]"
}

func (p *idealDiff) Migrate(thread, proc int, instr uint64)   {}
func (p *idealDiff) ThreadDone(thread int, totalInstr uint64) {}
func (p *idealDiff) Finish()                                  {}

func (p *idealDiff) check(t *testing.T) {
	t.Helper()
	if p.diff != "" {
		t.Fatal(p.diff)
	}
	got, want := p.got, p.want
	if got.RaceCount() != want.raceCount {
		t.Fatalf("RaceCount %d, oracle %d", got.RaceCount(), want.raceCount)
	}
	if gr := got.Races(); !slices.Equal(gr, want.races) {
		for i := range gr {
			if i >= len(want.races) || gr[i] != want.races[i] {
				t.Fatalf("Races()[%d] of %d: %+v, oracle has %d", i, len(gr), gr[i].First, len(want.races))
			}
		}
		t.Fatalf("Races() has %d, oracle %d", len(gr), len(want.races))
	}
	if !maps.Equal(got.pairs, want.pairs) {
		t.Fatalf("pair sets differ: %d vs oracle %d", len(got.pairs), len(want.pairs))
	}
	if len(got.pairs) >= got.maxPairs {
		return // past the pair-set cap Confirms is incomplete
	}
	for _, r := range p.ft.Races() {
		if !got.Confirms(r) {
			t.Fatalf("FastTrack race %v not confirmed by Ideal", r)
		}
	}
}

// runIdealDiff runs prog once with the three detectors attached.
func runIdealDiff(t *testing.T, prog sim.Program, threads int, pruneInterval uint64, cfg sim.Config) {
	t.Helper()
	p := newIdealDiff(threads, pruneInterval)
	cfg.Observers = []trace.Observer{p}
	if _, err := sim.New(cfg, prog).Run(); err != nil {
		t.Fatal(err)
	}
	p.check(t)
}

// contendedProgen is a generated-program shape with few, small shared
// regions, so that removing one lock acquire usually exposes races.
func contendedProgen(threads int) progen.Config {
	cfg := progen.DefaultConfig()
	cfg.Threads = threads
	cfg.Regions = 2
	cfg.RegionWords = 6
	cfg.OpsPerThread = 40
	return cfg
}

// TestIdealMatchesOracle is the differential check of Ideal against
// idealOracle: identical per-access reports, Races() in the same order, the
// same RaceCount, and the same confirmable pair set.
// A prune interval of 16 makes compaction run hundreds of times per run.
func TestIdealMatchesOracle(t *testing.T) {
	t.Run("apps", func(t *testing.T) {
		// The apps touch thousands of words, so each injection run takes a
		// different prune interval to keep the oracle's full-map prune cheap.
		for ai, app := range workload.All() {
			for k, prune := range []uint64{64, 512, 8192} {
				seed := uint64(ai)*1_000_003 + uint64(k)*97
				runIdealDiff(t, app.Build(1, 4), 4, prune, sim.Config{Seed: seed, InjectSkip: 1 + uint64(k)*29})
			}
		}
	})
	t.Run("progen", func(t *testing.T) {
		for seed := uint64(0); seed < 12; seed++ {
			p := progen.New(seed, contendedProgen(4))
			tid := int(seed) % 4
			nth := p.FirstPhaseSync[tid]
			if nth == 0 {
				continue
			}
			runIdealDiff(t, p.Prog, 4, 16, sim.Config{
				Seed: seed*13 + 5, Jitter: 7,
				InjectThread: tid, InjectThreadNth: uint64(1 + int(seed)%nth),
			})
		}
	})
	t.Run("stream", func(t *testing.T) {
		// An unsynchronized random stream on a few words piles up history
		// and passes both the stored-race cap and a lowered pair-set cap.
		p := newIdealDiff(8, 16)
		p.got.maxPairs, p.want.maxPairs = 5000, 5000
		rng := rand.New(rand.NewPCG(7, 11))
		for seq := uint64(0); seq < 12000; seq++ {
			a := trace.Access{Seq: seq, Thread: rng.IntN(8), Class: trace.Data}
			a.Addr = memsys.WordAddr(memsys.Line(16+rng.IntN(4)), rng.IntN(memsys.WordsPerLine))
			if rng.IntN(3) == 0 {
				a.Kind = trace.Write
			}
			if rng.IntN(50) == 0 {
				a.Class, a.Addr = trace.Sync, memsys.Addr(memsys.LineBytes*uint64(1+rng.IntN(2)))
			}
			p.OnAccess(a)
		}
		if len(p.got.Races()) < maxStoredRaces || len(p.got.pairs) < 5000 {
			t.Fatalf("stream too tame: %d races stored, %d pairs", len(p.got.Races()), len(p.got.pairs))
		}
		p.check(t)
	})
}

// FuzzIdeal drives Ideal and idealOracle over a generated program: the seed
// picks the program and the interleaving, threads its thread count (1–8),
// prune the prune interval (1–256), and inject the dynamic sync instance
// removed (0 removes none).
func FuzzIdeal(f *testing.F) {
	// Racy seeds: 8, 5, 3 and 2 threads with a lock acquire removed.
	f.Add(uint64(8), uint8(7), uint16(15), uint16(5))
	f.Add(uint64(1), uint8(4), uint16(0), uint16(2))
	f.Add(uint64(5), uint8(2), uint16(63), uint16(5))
	f.Add(uint64(3), uint8(1), uint16(7), uint16(2))
	f.Add(uint64(8), uint8(4), uint16(255), uint16(9))
	// One thread, nothing removed.
	f.Add(uint64(2), uint8(0), uint16(3), uint16(0))
	f.Fuzz(func(t *testing.T, seed uint64, threads uint8, prune, inject uint16) {
		th := 1 + int(threads)%8
		p := progen.New(seed, contendedProgen(th))
		runIdealDiff(t, p.Prog, th, 1+uint64(prune)%256, sim.Config{
			Seed: seed, Jitter: 7, Procs: th, InjectSkip: uint64(inject),
		})
	})
}
