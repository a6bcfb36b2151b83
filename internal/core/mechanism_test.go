package core

import (
	"testing"

	"cord/internal/clock"
	"cord/internal/memsys"
	"cord/internal/trace"
)

// TestFastPathRequiresCurrentClock: once the thread's clock moves on, a hit
// on a previously-stamped word re-stamps and re-checks (§2.7.2's rotation on
// hit — the mechanism behind cholesky's check bursts in §4.1).
func TestFastPathRequiresCurrentClock(t *testing.T) {
	det, f := newTest(16)
	f.write(0, varX) // stamp at clock 1
	st0 := det.Stats()
	f.write(0, varX) // same clock: fast path
	st1 := det.Stats()
	if st1.FastPathHits != st0.FastPathHits+1 {
		t.Fatalf("expected a fast-path hit, stats %+v", st1)
	}
	f.syncWrite(0, varL) // clock increments
	f.write(0, varX)     // clock moved: must re-stamp, not fast path
	st2 := det.Stats()
	if st2.FastPathHits != st1.FastPathHits {
		t.Fatalf("fast path taken with a stale clock")
	}
}

// TestFilterBitsSuppressChecks: after a check finds no remote conflicts for
// the line, further accesses to other words of the line skip the broadcast.
func TestFilterBitsSuppressChecks(t *testing.T) {
	det, f := newTest(16)
	f.write(0, varX) // miss: installs line, no remote holders -> filters granted
	checksBefore := det.Stats().CheckRequests
	f.write(0, varX+4) // same line, new word: filterW suppresses the check
	f.read(0, varX+8)
	if got := det.Stats().CheckRequests; got != checksBefore {
		t.Fatalf("filter bits did not suppress checks: %d -> %d", checksBefore, got)
	}
	if det.Stats().FilterHits < 2 {
		t.Fatalf("filter hits not counted: %+v", det.Stats())
	}
}

// TestRemoteSnoopClearsFilters: a remote access to the line revokes the
// filter permission.
func TestRemoteSnoopClearsFilters(t *testing.T) {
	det, f := newTest(16)
	f.write(0, varX) // proc 0 owns the line, filters set
	f.read(1, varX)  // remote fetch snoops proc 0 (race detected, line now shared)
	before := det.Stats().CheckRequests
	// Proc 0's next READ of another word is coherence-silent (shared line),
	// its access bit is unset, and the snoop revoked the filter — so an
	// explicit race-check broadcast must go out.
	f.read(0, varX+12)
	if got := det.Stats().CheckRequests; got == before {
		t.Fatal("filter survived a remote snoop")
	}
}

// TestTwoTimestampSlots: the older timestamp still provides history after
// one rotation (Fig. 2's motivation), and is lost after two.
func TestTwoTimestampSlots(t *testing.T) {
	bump := func(f *feeder, n int) {
		for i := 0; i < n; i++ {
			f.syncWrite(0, varL)
		}
	}
	run := func(depth, rotations int) int {
		det := New(Config{Threads: 2, Procs: 2, D: 4, HistDepth: depth})
		f := newFeeder(det)
		f.write(0, varX) // the racy write, stamped at clock 1
		for r := 0; r < rotations; r++ {
			bump(f, 1)
			f.write(0, varX+4) // another word of the line: rotates a slot
		}
		f.read(1, varX) // conflicting read
		return det.RaceCount()
	}
	if run(2, 0) != 1 || run(1, 0) != 1 {
		t.Fatal("baseline race undetected")
	}
	if run(2, 1) != 1 {
		t.Fatal("two slots should survive one rotation")
	}
	if run(1, 1) != 0 {
		t.Fatal("one slot should lose history after one rotation")
	}
	if run(2, 2) != 0 {
		t.Fatal("two slots should lose history after two rotations")
	}
}

// TestEvictionGoesToMemoryTimestamps: a displaced line's history raises the
// memory timestamps; later conflicting accesses through memory are counted
// as suppressed, never reported (§2.5).
func TestEvictionGoesToMemoryTimestamps(t *testing.T) {
	det := New(Config{Threads: 2, Procs: 2, D: 4})
	f := newFeeder(det)
	f.write(0, varX)
	if !f.evict(0, varX) {
		t.Fatal("X still cached after filling its set")
	}
	rep := f.read(1, varX) // nobody caches X: memory path
	if len(rep.Races) != 0 {
		t.Fatalf("memory-path race was reported: %+v", rep.Races)
	}
	if det.Stats().ViaMemoryRaces == 0 {
		t.Fatal("suppressed via-memory detection not counted")
	}
	if det.Stats().MemTsBroadcasts == 0 {
		t.Fatal("eviction did not broadcast a memory-timestamp update")
	}
}

// TestSyncReadThroughMemoryUsesD: acquiring a displaced sync variable jumps
// the clock D past the memory write timestamp, so data synchronized through
// it is never flagged (EXPERIMENTS.md deviation #4).
func TestSyncReadThroughMemoryUsesD(t *testing.T) {
	det := New(Config{Threads: 2, Procs: 2, D: 16})
	f := newFeeder(det)
	f.write(0, varX)     // data, ts 1
	f.syncWrite(0, varL) // release, ts 1
	if !f.evict(0, varX) || !f.evict(0, varL) {
		t.Fatal("X or L still cached after filling its set")
	}
	f.syncRead(1, varL) // acquire through memory
	if c := det.Clock(1); clock.Dist(1, c) < 16 {
		t.Fatalf("acquire through memory gave clock %d, want >= 17", c)
	}
	rep := f.read(1, varX) // X also through memory; and ordered by the D jump
	if len(rep.Races) != 0 {
		t.Fatalf("synchronized-through-memory pair reported: %+v", rep.Races)
	}
}

// TestWriteChecksReadsAndWrites: a write conflicts with remote reads as well
// as remote writes; a read conflicts only with remote writes (§1).
func TestWriteChecksReadsAndWrites(t *testing.T) {
	det, f := newTest(4)
	f.read(0, varX)
	rep := f.write(1, varX) // write-after-read: race
	if len(rep.Races) != 1 || rep.Races[0].First.Kind != trace.Read {
		t.Fatalf("write did not race with remote read: %+v", rep.Races)
	}
	det2, f2 := newTest(4)
	f2.read(0, varX)
	rep2 := f2.read(1, varX) // read-after-read: never a race
	if len(rep2.Races) != 0 {
		t.Fatalf("read-read flagged: %+v", rep2.Races)
	}
	_, _ = det, det2
}

// TestUpgradePathChecks: a write hit on a Shared line (after a remote read
// brought it to shared state) still performs the remote check via the
// upgrade transaction.
func TestUpgradePathChecks(t *testing.T) {
	det, f := newTest(4)
	f.write(0, varX) // proc 0 owns
	f.read(1, varX)  // proc 1 fetches: race (counted), proc 0 downgraded
	n := det.RaceCount()
	rep := f.write(0, varX+4) // proc 0 writes another word: upgrade; checks proc 1's read bits? different word: no conflict
	if len(rep.Races) != 0 {
		t.Fatalf("no conflict expected on a different word: %+v", rep.Races)
	}
	f.syncWrite(1, varL+64) // advance proc 1's clock a bit (own sync var)
	rep = f.write(1, varX+4)
	// Write-after-write on word X+4 across procs: must be seen (upgrade or
	// miss path) and reported while within the D window.
	if det.RaceCount() <= n {
		t.Fatalf("upgrade-path conflict missed: count %d -> %d", n, det.RaceCount())
	}
}

// TestWalkerRetiresStaleTimestamps: after the frontier advances far enough,
// stale in-cache timestamps are spilled to memory and removed.
func TestWalkerRetiresStaleTimestamps(t *testing.T) {
	det := New(Config{Threads: 2, Procs: 2, D: 1})
	f := newFeeder(det)
	f.write(0, varX) // ts 1
	// Drive thread 1's clock past the stale age via its own sync writes:
	// each one advances it by one, and the walker runs at least every
	// walkInterval accesses.
	for i := 0; i < staleAge+walkInterval; i++ {
		f.syncWrite(1, varL)
	}
	if c := det.Clock(1); clock.Dist(1, c) <= staleAge {
		t.Fatalf("thread 1's clock %d is not past the stale age %d", c, staleAge)
	}
	if det.Stats().WalkerRetired == 0 {
		t.Fatalf("walker retired nothing: %+v", det.Stats())
	}
	if det.Stats().StalledUpdates != 0 {
		t.Fatalf("window stalls occurred: %+v", det.Stats())
	}
	// X's history is gone: the conflicting read goes through memory and is
	// suppressed.
	rep := f.read(1, varX)
	if len(rep.Races) != 0 {
		t.Fatalf("stale-timestamp race reported after retirement: %+v", rep.Races)
	}
}

// TestLongRunClockWrap: a run that pushes clocks through multiple 16-bit
// wraps stays sound — no stalled updates, no false positives on a
// synchronized workload.
func TestLongRunClockWrap(t *testing.T) {
	det := New(Config{Threads: 2, Procs: 2, D: 16, Record: true})
	f := newFeeder(det)
	// Ping-pong releases/acquires: each hop advances the frontier ~D, so
	// 2^13 hops push well past two full wraps.
	for i := 0; i < 1<<13; i++ {
		f.write(0, varX)
		f.syncWrite(0, varL)
		f.syncRead(1, varL)
		f.read(1, varX)
		f.syncWrite(1, varQ)
		f.syncRead(0, varQ)
	}
	if det.RaceCount() != 0 {
		t.Fatalf("false positives after clock wraps: %d", det.RaceCount())
	}
	if det.Stats().StalledUpdates != 0 {
		t.Fatalf("window stalls occurred: %+v", det.Stats())
	}
}

// TestMigrationForcedResyncLogged: the walker's forced thread resync and the
// migration bump both append log entries, keeping replay schedules complete.
func TestMigrationForcedResyncLogged(t *testing.T) {
	det := New(Config{Threads: 2, Procs: 2, D: 8, Record: true})
	f := newFeeder(det)
	f.write(0, varX)
	entries := det.Log().Len()
	det.Migrate(0, 1, f.inst[0])
	if det.Log().Len() != entries+1 {
		t.Fatal("migration bump did not log a clock change")
	}
}

// TestAblationNoUpdateOnDataRaces: with updates disabled, the thread's clock
// stays put across data races (only the response-timestamp ordering applies),
// so the sliding comparison still sits at the first access's level.
func TestAblationNoUpdateOnDataRaces(t *testing.T) {
	det := New(Config{Threads: 2, Procs: 2, D: 4, NoUpdateOnDataRaces: true})
	f := newFeeder(det)
	f.write(0, varY)
	f.write(0, varX)
	f.read(1, varX) // race; no race-outcome clock update in this configuration
	rep := f.read(1, varY)
	if len(rep.Races) != 1 {
		t.Fatalf("overlap race should be visible without updates: %d", det.RaceCount())
	}
	// Recording completeness is what the ablation sacrifices: with updates
	// on (the default), the same scenario orders the log entries instead.
	if det.Clock(1) == 1 {
		t.Fatal("response ordering should still have advanced the clock")
	}
}

// TestReportCapRespected: stored races are capped, counting is not. D is
// large so the +1 updates from earlier races don't hide later ones (the
// Fig. 3 overlap effect, separately tested).
func TestReportCapRespected(t *testing.T) {
	det := New(Config{Threads: 2, Procs: 2, D: 64})
	f := newFeeder(det)
	const n = maxStoredRaces + 10
	for i := 0; i < n; i++ {
		a := memsys.Addr(0x9000 + i*64)
		f.write(0, a)
		f.read(1, a)
	}
	if len(det.Races()) != maxStoredRaces {
		t.Fatalf("stored %d races, cap %d", len(det.Races()), maxStoredRaces)
	}
	if det.RaceCount() != n {
		t.Fatalf("count %d, want %d", det.RaceCount(), n)
	}
	if det.Stats().RaceReports != n {
		t.Fatalf("reports %d, want %d", det.Stats().RaceReports, n)
	}
}

// TestNameAndConfig: labels and defaults.
func TestNameAndConfig(t *testing.T) {
	if New(Config{D: 16}).Name() != "CORD(D=16)" {
		t.Fatal("name wrong")
	}
	def := DefaultConfig()
	if def.D != 16 || def.HistDepth != 2 || !def.Record {
		t.Fatalf("defaults drifted: %+v", def)
	}
}
