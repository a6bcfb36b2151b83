package baseline

import (
	"math/rand"
	"testing"

	"cord/internal/memsys"
	"cord/internal/trace"
)

// both forwards each access to Ideal and FastTrack so the two observe the
// identical execution (same Seq numbering), returning FastTrack's report.
type both struct {
	id *Ideal
	ft *FastTrack
}

func (b *both) Name() string { return "both" }
func (b *both) OnAccess(a trace.Access) trace.Report {
	b.id.OnAccess(a)
	return b.ft.OnAccess(a)
}
func (b *both) Migrate(thread, proc int, instr uint64)   {}
func (b *both) ThreadDone(thread int, totalInstr uint64) {}
func (b *both) Finish()                                  {}

func TestFastTrackDetectsPlainRace(t *testing.T) {
	b := &both{id: NewIdeal(2), ft: NewFastTrack(FastTrackConfig{Threads: 2})}
	d := drive(b)
	d.acc(0, x, trace.Write, trace.Data)
	rep := d.acc(1, x, trace.Read, trace.Data)
	if len(rep.Races) != 1 {
		t.Fatalf("races = %d", len(rep.Races))
	}
	r := rep.Races[0]
	if r.First.Thread != 0 || r.First.Kind != trace.Write || r.Second.Seq != 1 {
		t.Fatalf("race = %+v", r)
	}
	if r.First.Seq != trace.SeqUnknown {
		t.Fatalf("epoch detector cannot know the first access's seq: %+v", r)
	}
	if !b.id.Confirms(r) {
		t.Fatal("ideal does not confirm the FastTrack race")
	}
	if !b.ft.ProblemDetected() || b.ft.RaceCount() != 1 || len(b.ft.Races()) != 1 {
		t.Fatalf("accounting: count=%d stored=%d", b.ft.RaceCount(), len(b.ft.Races()))
	}
}

func TestFastTrackAcquireReleaseOrders(t *testing.T) {
	ft := NewFastTrack(FastTrackConfig{Threads: 2})
	d := drive(ft)
	d.acc(0, x, trace.Write, trace.Data)
	d.acc(0, l, trace.Write, trace.Sync) // release
	d.acc(1, l, trace.Read, trace.Sync)  // acquire
	if rep := d.acc(1, x, trace.Read, trace.Data); len(rep.Races) != 0 {
		t.Fatalf("synchronized pair reported: %+v", rep.Races)
	}
	// The reverse direction is NOT ordered: a failed-TAS-style sync read
	// grants no release edge to a later sync writer.
	d.acc(0, y, trace.Write, trace.Data)
	d.acc(0, l, trace.Read, trace.Sync)
	d.acc(1, l, trace.Write, trace.Sync)
	if rep := d.acc(1, y, trace.Write, trace.Data); len(rep.Races) != 1 {
		t.Fatalf("write-after-read treated as synchronization: %+v", rep.Races)
	}
}

func TestFastTrackReadReadNotRace(t *testing.T) {
	ft := NewFastTrack(FastTrackConfig{Threads: 2})
	d := drive(ft)
	d.acc(0, x, trace.Read, trace.Data)
	if rep := d.acc(1, x, trace.Read, trace.Data); len(rep.Races) != 0 {
		t.Fatal("read-read reported as race")
	}
	if ft.RaceCount() != 0 {
		t.Fatalf("race count = %d", ft.RaceCount())
	}
}

func TestFastTrackWriteWriteRace(t *testing.T) {
	ft := NewFastTrack(FastTrackConfig{Threads: 2})
	d := drive(ft)
	d.acc(0, x, trace.Write, trace.Data)
	rep := d.acc(1, x, trace.Write, trace.Data)
	if len(rep.Races) != 1 || rep.Races[0].First.Kind != trace.Write {
		t.Fatalf("write-write race: %+v", rep.Races)
	}
}

func TestFastTrackSameEpochFastPathDoesNotRecount(t *testing.T) {
	ft := NewFastTrack(FastTrackConfig{Threads: 2})
	d := drive(ft)
	d.acc(0, x, trace.Write, trace.Data)
	d.acc(1, x, trace.Read, trace.Data) // racy read
	d.acc(1, x, trace.Read, trace.Data) // same epoch: fast path, no recount
	if ft.RaceCount() != 1 {
		t.Fatalf("same-epoch read recounted: %d", ft.RaceCount())
	}
	d.acc(1, x, trace.Write, trace.Data) // racy write (vs T0's write)
	d.acc(1, x, trace.Write, trace.Data) // same epoch: fast path
	if ft.RaceCount() != 2 {
		t.Fatalf("same-epoch write recounted: %d", ft.RaceCount())
	}
}

func TestFastTrackInflateAndWriteSeesAllReaders(t *testing.T) {
	// Three concurrent readers force the read state into the vector
	// representation; an unordered write then races with every reader.
	ft := NewFastTrack(FastTrackConfig{Threads: 4})
	d := drive(ft)
	d.acc(0, x, trace.Read, trace.Data)
	d.acc(1, x, trace.Read, trace.Data)
	d.acc(2, x, trace.Read, trace.Data)
	rep := d.acc(3, x, trace.Write, trace.Data)
	if len(rep.Races) != 3 {
		t.Fatalf("write to read-shared word found %d of 3 readers", len(rep.Races))
	}
	for _, r := range rep.Races {
		if r.First.Kind != trace.Read || r.Second.Thread != 3 {
			t.Fatalf("race = %+v", r)
		}
	}
}

func TestFastTrackExclusiveReadStaysEpoch(t *testing.T) {
	// Reads ordered by release/acquire keep the epoch representation: the
	// metadata footprint stays at 2 words for x plus one sync vector.
	ft := NewFastTrack(FastTrackConfig{Threads: 2})
	d := drive(ft)
	d.acc(0, x, trace.Read, trace.Data)
	d.acc(0, l, trace.Write, trace.Sync)
	d.acc(1, l, trace.Read, trace.Sync)
	d.acc(1, x, trace.Read, trace.Data) // ordered after T0's read: takeover
	if got, want := ft.MetadataWords(), 2+2; got != want {
		t.Fatalf("ordered reads inflated: %d words, want %d", got, want)
	}
}

func TestFastTrackDeflateRecyclesVector(t *testing.T) {
	ft := NewFastTrack(FastTrackConfig{Threads: 2})
	d := drive(ft)
	d.acc(0, x, trace.Read, trace.Data)
	d.acc(1, x, trace.Read, trace.Data) // concurrent: inflate
	if got, want := ft.MetadataWords(), 2+2; got != want {
		t.Fatalf("after inflation: %d words, want %d", got, want)
	}
	d.acc(1, x, trace.Write, trace.Data) // deflates back to epochs
	if got, want := ft.MetadataWords(), 2; got != want {
		t.Fatalf("after deflation: %d words, want %d", got, want)
	}
	sh := ft.shadow
	if len(sh.freeVecs) != 1 {
		t.Fatalf("deflated vector not on free list: %d", len(sh.freeVecs))
	}
	// Re-inflation must reuse the freed vector, fully cleared.
	d.acc(0, x, trace.Read, trace.Data)
	d.acc(1, x, trace.Read, trace.Data)
	if len(sh.freeVecs) != 0 {
		t.Fatal("re-inflation did not pop the free list")
	}
	w := sh.word(x)
	if w.readVec == nil {
		t.Fatal("read state not inflated")
	}
	// Only the two fresh reads may be present — stale components from the
	// recycled vector would be unsound (phantom readers).
	for i, c := range w.readVec {
		if i >= 2 && c != 0 {
			t.Fatalf("recycled vector kept stale component %d=%d", i, c)
		}
	}
}

func TestFastTrackMetadataWordsAccounting(t *testing.T) {
	ft := NewFastTrack(FastTrackConfig{Threads: 4})
	d := drive(ft)
	d.acc(0, x, trace.Write, trace.Data) // word x: 2
	d.acc(0, y, trace.Read, trace.Data)  // word y: 2
	d.acc(0, l, trace.Write, trace.Sync) // sync l: 4
	if got, want := ft.MetadataWords(), 2+2+4; got != want {
		t.Fatalf("metadata words = %d, want %d", got, want)
	}
}

func TestFastTrackStoredRaceCap(t *testing.T) {
	ft := NewFastTrack(FastTrackConfig{Threads: 2})
	d := drive(ft)
	const n = maxStoredRaces + 2
	for i := 0; i < n; i++ {
		addr := memsys.Addr(0x1000 + 8*i)
		d.acc(0, addr, trace.Write, trace.Data)
		d.acc(1, addr, trace.Write, trace.Data)
	}
	if got := len(ft.Races()); got != maxStoredRaces {
		t.Fatalf("stored races = %d, want cap %d", got, maxStoredRaces)
	}
	if ft.RaceCount() != n {
		t.Fatalf("race count = %d, want %d (counter is uncapped)", ft.RaceCount(), n)
	}
}

func TestFastTrackConfirmedByIdealRandomized(t *testing.T) {
	// Randomized cross-check of the no-false-positive invariant: every race
	// FastTrack reports over a mixed data/sync workload is one Ideal's full
	// per-access oracle also found.
	b := &both{id: NewIdeal(4), ft: NewFastTrack(FastTrackConfig{Threads: 4})}
	d := drive(b)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		th := rng.Intn(4)
		class := trace.Data
		var addr memsys.Addr
		if rng.Intn(6) == 0 {
			class = trace.Sync
			addr = memsys.Addr(0x9000 + 8*rng.Intn(4))
		} else {
			addr = memsys.Addr(0x1000 + 8*rng.Intn(128))
		}
		kind := trace.Read
		if rng.Intn(2) == 0 {
			kind = trace.Write
		}
		d.acc(th, addr, kind, class)
	}
	races := b.ft.Races()
	if len(races) == 0 {
		t.Fatal("workload produced no races; test is vacuous")
	}
	for _, r := range races {
		if !b.id.Confirms(r) {
			t.Fatalf("false positive: %+v", r)
		}
	}
}
