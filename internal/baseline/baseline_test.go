package baseline

import (
	"testing"

	"cord/internal/memsys"
	"cord/internal/trace"
)

type driver struct {
	obs  trace.Observer
	seq  uint64
	inst map[int]uint64
}

func drive(obs trace.Observer) *driver { return &driver{obs: obs, inst: map[int]uint64{}} }

func (d *driver) acc(thread int, addr memsys.Addr, kind trace.Kind, class trace.Class) trace.Report {
	a := trace.Access{Seq: d.seq, Thread: thread, Proc: thread, Addr: addr, Kind: kind, Class: class, Instr: d.inst[thread], Instrs: 1}
	d.seq++
	d.inst[thread]++
	return d.obs.OnAccess(a)
}

const (
	x = memsys.Addr(0x1000)
	y = memsys.Addr(0x2000)
	l = memsys.Addr(0x3000)
)

func TestIdealDetectsPlainRace(t *testing.T) {
	id := NewIdeal(2)
	d := drive(id)
	d.acc(0, x, trace.Write, trace.Data)
	rep := d.acc(1, x, trace.Read, trace.Data)
	if len(rep.Races) != 1 {
		t.Fatalf("races = %d", len(rep.Races))
	}
	r := rep.Races[0]
	if r.First.Thread != 0 || r.First.Kind != trace.Write || r.Second.Seq != 1 {
		t.Fatalf("race = %+v", r)
	}
	if !id.Confirms(r) {
		t.Fatal("ideal does not confirm its own race")
	}
}

func TestIdealAcquireReleaseOrders(t *testing.T) {
	id := NewIdeal(2)
	d := drive(id)
	d.acc(0, x, trace.Write, trace.Data)
	d.acc(0, l, trace.Write, trace.Sync) // release
	d.acc(1, l, trace.Read, trace.Sync)  // acquire
	rep := d.acc(1, x, trace.Read, trace.Data)
	if len(rep.Races) != 0 {
		t.Fatalf("synchronized pair reported: %+v", rep.Races)
	}
}

func TestIdealReadReadNotConflict(t *testing.T) {
	id := NewIdeal(2)
	d := drive(id)
	d.acc(0, x, trace.Read, trace.Data)
	if rep := d.acc(1, x, trace.Read, trace.Data); len(rep.Races) != 0 {
		t.Fatal("read-read reported as race")
	}
}

func TestIdealDetectsAllOverlappingRaces(t *testing.T) {
	// Unlike scalar CORD (Fig. 3), the oracle finds both races.
	id := NewIdeal(2)
	d := drive(id)
	d.acc(0, y, trace.Write, trace.Data)
	d.acc(0, x, trace.Write, trace.Data)
	d.acc(1, x, trace.Read, trace.Data)
	d.acc(1, y, trace.Read, trace.Data)
	if id.RaceCount() != 2 {
		t.Fatalf("race count = %d, want 2", id.RaceCount())
	}
}

func TestIdealWriteAfterReadNotSyncEdge(t *testing.T) {
	// A failed-TAS-style read followed by another thread's sync write must
	// NOT order the writer after the reader (acquire/release semantics).
	id := NewIdeal(2)
	d := drive(id)
	d.acc(0, x, trace.Write, trace.Data) // T0 data write
	d.acc(0, l, trace.Read, trace.Sync)  // T0 sync read (no release!)
	d.acc(1, l, trace.Write, trace.Sync) // T1 sync write
	rep := d.acc(1, x, trace.Read, trace.Data)
	if len(rep.Races) != 1 {
		t.Fatalf("write-after-read treated as synchronization: %d races", len(rep.Races))
	}
}

func TestIdealPruneKeepsDetection(t *testing.T) {
	id := NewIdeal(2)
	id.pruneInterval = 8
	d := drive(id)
	// Lots of synchronized ping-pong traffic to trigger pruning (both
	// directions need an edge: l forward, l2 back)...
	const l2 = memsys.Addr(0x4000)
	for i := 0; i < 50; i++ {
		d.acc(0, y, trace.Write, trace.Data)
		d.acc(0, l, trace.Write, trace.Sync)
		d.acc(1, l, trace.Read, trace.Sync)
		d.acc(1, y, trace.Read, trace.Data)
		d.acc(1, l2, trace.Write, trace.Sync)
		d.acc(0, l2, trace.Read, trace.Sync)
	}
	if id.RaceCount() != 0 {
		t.Fatalf("synchronized loop produced %d races", id.RaceCount())
	}
	// ...then a fresh race must still be caught.
	d.acc(0, x, trace.Write, trace.Data)
	if rep := d.acc(1, x, trace.Write, trace.Data); len(rep.Races) != 1 {
		t.Fatal("race missed after pruning")
	}
}

func TestVecCacheDetectsAndOrders(t *testing.T) {
	v := NewVecCache(VecConfig{Threads: 2, Procs: 2, Bound: BoundInf})
	d := drive(v)
	d.acc(0, x, trace.Write, trace.Data)
	if rep := d.acc(1, x, trace.Read, trace.Data); len(rep.Races) != 1 {
		t.Fatalf("vector missed plain race")
	}
	// Synchronized pattern on a fresh address.
	d.acc(0, y, trace.Write, trace.Data)
	d.acc(0, l, trace.Write, trace.Sync)
	d.acc(1, l, trace.Read, trace.Sync)
	if rep := d.acc(1, y, trace.Read, trace.Data); len(rep.Races) != 0 {
		t.Fatalf("vector flagged synchronized pair: %+v", rep.Races)
	}
}

func TestVecCacheOverlappingRacesVisible(t *testing.T) {
	// Unlike scalar CORD (Fig. 3), the vector detector performs no clock
	// update on data races, so overlapping races stay visible — the
	// property that lets the InfCache configuration track Ideal's raw
	// detection rate in Fig. 15.
	v := NewVecCache(VecConfig{Threads: 2, Procs: 2, Bound: BoundInf})
	d := drive(v)
	d.acc(0, y, trace.Write, trace.Data)
	d.acc(0, x, trace.Write, trace.Data)
	d.acc(1, x, trace.Read, trace.Data)
	rep := d.acc(1, y, trace.Read, trace.Data)
	if len(rep.Races) != 1 {
		t.Fatalf("overlap race should stay visible: %+v", rep.Races)
	}
	if v.RaceCount() != 2 {
		t.Fatalf("race count = %d, want 2", v.RaceCount())
	}
}

func TestVecCacheBoundedLosesEvictedHistory(t *testing.T) {
	// A two-line L1-style bound: force the racy line out, then miss the
	// race but report nothing false (memory-timestamp suppression).
	v := NewVecCache(VecConfig{Threads: 2, Procs: 2, Bound: BoundL1})
	d := drive(v)
	d.acc(0, x, trace.Write, trace.Data)
	// Evict x from proc 0 by filling its cache with many lines.
	for i := 0; i < 600; i++ {
		d.acc(0, memsys.Addr(0x100000+i*64), trace.Write, trace.Data)
	}
	rep := d.acc(1, x, trace.Read, trace.Data)
	if len(rep.Races) != 0 {
		t.Fatalf("evicted history still produced a report: %+v", rep.Races)
	}
}

func TestBoundNames(t *testing.T) {
	if BoundInf.String() != "InfCache" || BoundL2.String() != "L2Cache" || BoundL1.String() != "L1Cache" {
		t.Fatal("bound names wrong")
	}
	v := NewVecCache(VecConfig{Threads: 4, Bound: BoundL2})
	if v.Name() != "Vector/L2Cache" {
		t.Fatalf("name = %q", v.Name())
	}
}

func TestVecCacheOneSlotLosesRotatedHistory(t *testing.T) {
	// HistDepth=1 (the Fig. 2 ablation for the vector scheme): one clock
	// change on the line erases the racy history; two slots survive it.
	run := func(depth int) int {
		v := NewVecCache(VecConfig{Threads: 2, Procs: 2, Bound: BoundInf, HistDepth: depth})
		d := drive(v)
		d.acc(0, x, trace.Write, trace.Data)   // the racy write
		d.acc(0, l, trace.Write, trace.Sync)   // clock ticks
		d.acc(0, x+4, trace.Write, trace.Data) // same line, new vc: rotates
		d.acc(1, x, trace.Read, trace.Data)    // conflicting read
		return v.RaceCount()
	}
	if run(2) != 1 {
		t.Fatal("two slots lost the race")
	}
	if run(1) != 0 {
		t.Fatal("one slot kept history it should have rotated out")
	}
}
