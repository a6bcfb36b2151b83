package core

import (
	"math"
	"testing"
)

func TestRecorderEpochDeltas(t *testing.T) {
	r := newRecorder(2, true, 1)
	r.clockChanged(0, 5, 10) // thread 0 ran 10 instrs at clock 1
	r.clockChanged(0, 9, 25) // then 15 at clock 5
	r.threadDone(0, 40)      // then 15 at clock 9
	es := r.log.Entries()
	if len(es) != 3 {
		t.Fatalf("entries %d", len(es))
	}
	if es[0].Clock != 1 || es[0].Instr != 10 {
		t.Fatalf("entry 0 %v", es[0])
	}
	if es[1].Clock != 5 || es[1].Instr != 15 {
		t.Fatalf("entry 1 %v", es[1])
	}
	if es[2].Clock != 9 || es[2].Instr != 15 {
		t.Fatalf("entry 2 %v", es[2])
	}
}

func TestRecorderDisabledIsSilent(t *testing.T) {
	r := newRecorder(1, false, 1)
	r.clockChanged(0, 2, 5)
	r.threadDone(0, 9)
	if r.log.Len() != 0 {
		t.Fatal("disabled recorder logged")
	}
}

// TestRecorderInstructionOverflowSplits: an epoch longer than the 32-bit
// instruction field splits into multiple entries with the same clock
// (§2.7.1's overflow handling, which is race-free because both halves carry
// the same logical time).
func TestRecorderInstructionOverflowSplits(t *testing.T) {
	r := newRecorder(1, true, 1)
	huge := uint64(math.MaxUint32) + 1000
	r.clockChanged(0, 7, huge)
	es := r.log.Entries()
	if len(es) != 2 {
		t.Fatalf("entries %d, want a split", len(es))
	}
	if es[0].Clock != es[1].Clock {
		t.Fatal("split halves carry different clocks")
	}
	if uint64(es[0].Instr)+uint64(es[1].Instr) != huge {
		t.Fatalf("split lost instructions: %d + %d != %d", es[0].Instr, es[1].Instr, huge)
	}
}

func TestMemTimestampsAbsorb(t *testing.T) {
	var m memTimestamps
	if m.absorb(histEntry{}) {
		t.Fatal("invalid entry absorbed")
	}
	if !m.absorb(histEntry{ts: 5, readMask: 1, valid: true}) {
		t.Fatal("read entry not absorbed")
	}
	if !m.hasRead || m.read != 5 || m.hasWrite {
		t.Fatalf("state %+v", m)
	}
	// Older timestamps never regress the registers.
	if m.absorb(histEntry{ts: 3, readMask: 1, valid: true}) {
		t.Fatal("older timestamp advanced the register")
	}
	if !m.absorb(histEntry{ts: 9, writeMask: 2, valid: true}) {
		t.Fatal("write entry not absorbed")
	}
	if m.write != 9 || !m.hasWrite {
		t.Fatalf("state %+v", m)
	}
}

func TestLineStateNewest(t *testing.T) {
	var ls lineState
	if ls.newest() != nil {
		t.Fatal("empty line has a newest entry")
	}
	ls.hist[0] = histEntry{ts: 3, valid: true}
	if n := ls.newest(); n == nil || n.ts != 3 {
		t.Fatal("newest wrong")
	}
	var e histEntry
	e.set(3, wordWrite)
	e.set(3, wordRead)
	if !e.has(3, wordWrite) || !e.has(3, wordRead) || e.has(2, wordRead) {
		t.Fatal("bit ops wrong")
	}
}
