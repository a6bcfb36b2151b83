// Package core implements the paper's contribution: the CORD mechanism for
// combined order-recording and data race detection (§2).
//
// Each processor's cache carries, per resident line, up to two 16-bit scalar
// timestamps with per-word read/write access bits (§2.3) and two check-filter
// bits (§2.7.2). Each thread carries a 16-bit scalar logical clock compared
// under the sliding-window rule (§2.7.5). A single pair of main-memory
// read/write timestamps (§2.5), kept consistent across processors by
// broadcast, covers everything displaced from the caches. Synchronization
// reads update the reader's clock to lead the synchronization variable's
// write timestamp by the window parameter D (§2.6); all other updates and
// the post-sync-write increment use one. Clock changes append 8-byte entries
// to the order log (§2.7.1), which replays the execution deterministically.
package core

import "cord/internal/clock"

// mesi is the detector's view of a line's coherence state. Exclusive and
// Modified behave identically for CORD (writes are silent in both), so a
// single "owned" state covers them; Shared lines require an upgrade
// transaction to write.
type mesi uint8

const (
	shared mesi = iota
	owned       // Exclusive or Modified: no other cache holds the line
)

// histEntry is one of the (up to two) timestamp slots of a cached line: the
// timestamp plus one read bit and one write bit per word (Fig. 2).
type histEntry struct {
	ts        clock.Scalar
	readMask  uint16
	writeMask uint16
	valid     bool
}

func (h *histEntry) set(word int, kind wordKind) {
	if kind == wordRead {
		h.readMask |= 1 << word
	} else {
		h.writeMask |= 1 << word
	}
}

func (h *histEntry) has(word int, kind wordKind) bool {
	if kind == wordRead {
		return h.readMask&(1<<word) != 0
	}
	return h.writeMask&(1<<word) != 0
}

type wordKind uint8

const (
	wordRead wordKind = iota
	wordWrite
)

// lineState is the per-line CORD payload: coherence state, the two-deep
// access history (index 0 is the newest timestamp), and the check-filter
// bits. The chip-area cost of this structure is what the area model in the
// public API prices out: 2×(16+16+16)+2 = 98 bits per 512-bit line ≈ 19%.
type lineState struct {
	state   mesi
	hist    [2]histEntry
	filterR bool
	filterW bool
}

// newest returns the most recent valid entry, if any.
func (ls *lineState) newest() *histEntry {
	if ls.hist[0].valid {
		return &ls.hist[0]
	}
	return nil
}

// memTimestamps is the pair of main-memory timestamps of §2.5. Logically one
// pair exists per cache, kept identical by broadcast; the simulator stores
// the single converged value and counts the broadcast transactions.
type memTimestamps struct {
	read, write clock.Scalar
	hasRead     bool
	hasWrite    bool
}

// absorb folds a displaced history entry into the memory timestamps,
// returning whether either timestamp changed (a broadcast transaction).
func (m *memTimestamps) absorb(e histEntry) bool {
	if !e.valid {
		return false
	}
	changed := false
	if e.readMask != 0 && (!m.hasRead || m.read.Before(e.ts)) {
		m.read, m.hasRead = e.ts, true
		changed = true
	}
	if e.writeMask != 0 && (!m.hasWrite || m.write.Before(e.ts)) {
		m.write, m.hasWrite = e.ts, true
		changed = true
	}
	return changed
}
