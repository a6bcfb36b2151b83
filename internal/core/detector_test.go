package core

import (
	"testing"

	"cord/internal/cache"
	"cord/internal/memsys"
	"cord/internal/trace"
)

// feeder drives a detector with a hand-built access sequence.
type feeder struct {
	d    *Detector
	seq  uint64
	inst map[int]uint64
}

func newFeeder(d *Detector) *feeder { return &feeder{d: d, inst: map[int]uint64{}} }

func (f *feeder) access(thread int, addr memsys.Addr, kind trace.Kind, class trace.Class) trace.Report {
	a := trace.Access{
		Seq: f.seq, Thread: thread, Proc: thread,
		Addr: addr, Kind: kind, Class: class, Instr: f.inst[thread],
	}
	f.seq++
	f.inst[thread]++
	return f.d.OnAccess(a)
}

func (f *feeder) read(t int, a memsys.Addr) trace.Report {
	return f.access(t, a, trace.Read, trace.Data)
}
func (f *feeder) write(t int, a memsys.Addr) trace.Report {
	return f.access(t, a, trace.Write, trace.Data)
}
func (f *feeder) syncRead(t int, a memsys.Addr) trace.Report {
	return f.access(t, a, trace.Read, trace.Sync)
}
func (f *feeder) syncWrite(t int, a memsys.Addr) trace.Report {
	return f.access(t, a, trace.Write, trace.Sync)
}

// evict has thread t write one line to every way of a's set in its
// processor's L2 (64 sets of 8 ways), far above the test variables, and
// reports whether a's line was displaced.
func (f *feeder) evict(t int, a memsys.Addr) bool {
	sets := memsys.Addr(cache.L2.Sets())
	for w := 0; w < cache.L2.Ways; w++ {
		f.write(t, a+memsys.Addr(1024+w)*sets*memsys.LineBytes)
	}
	_, held := f.d.caches[t].Peek(memsys.LineOf(a))
	return !held
}

// Distinct lines for the test variables.
const (
	varX = memsys.Addr(0x1000)
	varY = memsys.Addr(0x2000)
	varZ = memsys.Addr(0x3000)
	varL = memsys.Addr(0x4000)
	varQ = memsys.Addr(0x5000)
)

func newTest(d int) (*Detector, *feeder) {
	det := New(Config{Threads: 4, Procs: 4, D: d, Record: true})
	return det, newFeeder(det)
}

// TestSimpleRaceDetected: an unsynchronized write/read pair on X is a data
// race.
func TestSimpleRaceDetected(t *testing.T) {
	det, f := newTest(1)
	f.write(0, varX)
	rep := f.read(1, varX)
	if len(rep.Races) != 1 {
		t.Fatalf("got %d races, want 1", len(rep.Races))
	}
	r := rep.Races[0]
	if r.Addr != varX || r.First.Thread != 0 || r.Second.Thread != 1 {
		t.Fatalf("unexpected race %+v", r)
	}
	if det.RaceCount() != 1 {
		t.Fatalf("race count %d", det.RaceCount())
	}
}

// TestSynchronizedNotRace: the Figure 1 pattern — WR X, release L, acquire
// L, RD X — must not be reported.
func TestSynchronizedNotRace(t *testing.T) {
	for _, d := range []int{1, 4, 16, 256} {
		det, f := newTest(d)
		f.write(0, varX)
		f.syncWrite(0, varL) // unlock: release
		f.syncRead(1, varL)  // acquire
		rep := f.read(1, varX)
		if len(rep.Races) != 0 {
			t.Fatalf("D=%d: synchronized access reported as race: %+v", d, rep.Races)
		}
		if det.RaceCount() != 0 {
			t.Fatalf("D=%d: race count %d, want 0", d, det.RaceCount())
		}
	}
}

// TestFig4SyncWriteIncrement: without the post-sync-write clock increment
// the race on X would be missed; with it (as implemented) it is found.
func TestFig4SyncWriteIncrement(t *testing.T) {
	det, f := newTest(1)
	f.syncWrite(0, varL) // thread 0 writes sync var L, clock increments after
	f.syncRead(1, varL)  // thread 1 reads L, clock leaps past L's write ts
	f.write(0, varX)     // thread 0 writes X *after* its sync write
	rep := f.read(1, varX)
	if len(rep.Races) != 1 {
		t.Fatalf("race on X not detected: %d races (clocks t0=%d t1=%d)",
			det.RaceCount(), det.Clock(0), det.Clock(1))
	}
	_ = rep
}

// TestFig3OverlappingRaces: the race on X updates thread B's clock, hiding
// the race on Y — the documented scalar-clock behaviour (clock updates on
// all races).
func TestFig3OverlappingRaces(t *testing.T) {
	det, f := newTest(1)
	f.write(0, varY) // A: WR Y at clk 1
	f.write(0, varX) // A: WR X at clk 1
	f.read(1, varX)  // B: RD X -> race, B's clock updated to 2
	rep := f.read(1, varY)
	if len(rep.Races) != 0 {
		t.Fatalf("race on Y should be hidden by the clock update, got %+v", rep.Races)
	}
	if det.RaceCount() != 1 {
		t.Fatalf("want exactly the X race, got %d", det.RaceCount())
	}
}

// TestFig3WithD: with D > 1 the overlapping race on Y is *detected*,
// because the +1 clock update from the X race does not count as
// synchronization (§2.6).
func TestFig3WithD(t *testing.T) {
	det, f := newTest(4)
	f.write(0, varY)
	f.write(0, varX)
	f.read(1, varX) // race; clock update +1 only
	rep := f.read(1, varY)
	if len(rep.Races) != 1 {
		t.Fatalf("D=4 should still see the race on Y, got %d (total %d)", len(rep.Races), det.RaceCount())
	}
}

// TestFig8SymmetricChurn: with D=1, symmetric sync-write churn hides races
// on older variables; a larger D recovers them.
func fig8(d int) int {
	det, f := newTest(d)
	// Both threads write private sync vars at the same rate (clock churn),
	// around a pair of data conflicts.
	f.write(0, varQ)        // A: WR Q early
	f.syncWrite(0, varL)    // A's own sync churn (+1 each)
	f.syncWrite(1, varL+64) // B's own sync churn on a different variable
	f.syncWrite(0, varL)    //
	f.syncWrite(1, varL+64) //
	f.write(0, varX)        // A: WR X
	f.read(1, varQ)         // B: RD Q — distance 4 in B's clock
	f.read(1, varX)         // B: RD X — nearly simultaneous
	return det.RaceCount()
}

func TestFig8SymmetricChurn(t *testing.T) {
	if n := fig8(1); n != 1 {
		t.Fatalf("D=1: want only the nearly-simultaneous race, got %d", n)
	}
	if n := fig8(16); n != 2 {
		t.Fatalf("D=16: want both races, got %d", n)
	}
}

// TestNoRaceOnSameThread: repeated accesses by one thread never race.
func TestNoRaceOnSameThread(t *testing.T) {
	det, f := newTest(16)
	for i := 0; i < 50; i++ {
		f.write(0, varX)
		f.read(0, varX)
		f.syncWrite(0, varL)
	}
	if det.RaceCount() != 0 {
		t.Fatalf("self races reported: %d", det.RaceCount())
	}
}

// TestMemoryTimestampOrdering: the Figure 6 scenario — synchronization
// variable displaced to memory must still order the acquirer, and the false
// race on X must be suppressed.
func TestMemoryTimestampOrdering(t *testing.T) {
	det := New(Config{Threads: 2, Procs: 2, D: 1, Record: true})
	f := newFeeder(det)
	f.write(0, varX)     // A: WR X
	f.syncWrite(0, varL) // A: WR L (release)
	// Displace L and X from A's cache by filling their sets.
	if !f.evict(0, varL) || !f.evict(0, varX) {
		t.Fatal("L or X still cached after filling its set")
	}
	// B reads L from memory: must order after the memory write timestamp.
	before := det.Clock(1)
	f.syncRead(1, varL)
	if det.Clock(1) == before {
		t.Fatal("acquire through memory did not update the clock")
	}
	// B reads X: X was displaced too, so this also goes through memory —
	// no *reported* race.
	rep := f.read(1, varX)
	for _, r := range rep.Races {
		t.Fatalf("race reported through memory path: %+v", r)
	}
}

// TestOrderLogGrows: clock changes append entries; threads flush final
// epochs.
func TestOrderLogGrows(t *testing.T) {
	det, f := newTest(16)
	f.write(0, varX)
	f.read(1, varX) // race -> clock change -> log entry
	det.ThreadDone(0, f.inst[0])
	det.ThreadDone(1, f.inst[1])
	if det.Log().Len() < 3 {
		t.Fatalf("log has %d entries, want >= 3", det.Log().Len())
	}
}

// TestMigrationBumpPreventsSelfRace: after migration, a thread meeting its
// own timestamps on the old processor must not report a race (§2.7.4).
func TestMigrationBumpPreventsSelfRace(t *testing.T) {
	det := New(Config{Threads: 2, Procs: 2, D: 4, Record: true})
	f := newFeeder(det)
	f.write(0, varX) // stamped on proc 0
	det.Migrate(0, 1, f.inst[0])
	// Thread 0 now runs on proc 1 and touches X again: the fetch snoops
	// proc 0's cache, which holds thread 0's own old write timestamp.
	a := trace.Access{Seq: f.seq, Thread: 0, Proc: 1, Addr: varX, Kind: trace.Write, Class: trace.Data, Instr: f.inst[0]}
	f.seq++
	f.inst[0]++
	rep := det.OnAccess(a)
	if len(rep.Races) != 0 {
		t.Fatalf("self race after migration: %+v", rep.Races)
	}
}
