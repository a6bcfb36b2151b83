// Package directory implements the paper's proposed extension of CORD to
// directory-based coherence (§2.5: "A straightforward extension of this
// protocol to a directory-based system is possible, but in this paper we
// focus on systems (CMPs and SMPs) with snooping cache coherence").
//
// Under snooping, every CORD transaction — fetches, upgrades, explicit race
// checks, memory-timestamp updates — is a broadcast observed by all
// processors. Under a directory protocol the home node tracks exactly which
// caches hold each line, so:
//
//   - race checks and coherence requests become one request message to the
//     home plus one forward per actual sharer (instead of procs-1 snoops);
//   - the pair of main-memory timestamps lives at the home node naturally,
//     so "broadcast" memory-timestamp updates become a single message to
//     the home instead of a bus transaction every cache must observe.
//
// Detection results are identical by construction — the directory's sharer
// sets name precisely the caches the snooping protocol would have probed —
// which the tests assert by running both variants on the same executions.
// What changes is traffic, and that is the extension's point: message
// counts grow with actual sharing, not with machine size.
package directory

import (
	"fmt"

	"cord/internal/memsys"
)

// Stats counts the point-to-point messages a directory protocol would carry
// for the same CORD activity a snooping bus broadcasts.
type Stats struct {
	// Requests are messages from a requesting cache to the home node
	// (fetches, upgrades and explicit race checks all take one).
	Requests uint64
	// Forwards are home-to-sharer messages (race checks and invalidations
	// are forwarded only to actual sharers).
	Forwards uint64
	// Responses are sharer-to-requester replies carrying timestamps/data.
	Responses uint64
	// MemTsMessages are memory-timestamp updates: one message to the home
	// instead of a broadcast.
	MemTsMessages uint64
}

type entry struct {
	sharers uint64 // bitmap over processors
}

// Directory is the home-node sharer tracker for one simulated machine.
type Directory struct {
	procs int
	lines map[memsys.Line]*entry
	st    Stats
}

// New builds an empty directory for the given processor count (up to 64).
func New(procs int) *Directory {
	if procs <= 0 || procs > 64 {
		panic(fmt.Sprintf("directory: unsupported processor count %d", procs))
	}
	return &Directory{procs: procs, lines: make(map[memsys.Line]*entry)}
}

// Procs returns the processor count the directory was built for.
func (d *Directory) Procs() int { return d.procs }

func (d *Directory) entryFor(l memsys.Line) *entry {
	e := d.lines[l]
	if e == nil {
		e = &entry{}
		d.lines[l] = e
	}
	return e
}

// Sharers appends to dst the processors currently holding the line, except
// the requester. This is the forward set for a request on the line.
func (d *Directory) Sharers(l memsys.Line, except int, dst []int) []int {
	e := d.lines[l]
	if e == nil {
		return dst
	}
	for p := 0; p < d.procs; p++ {
		if p != except && e.sharers&(1<<p) != 0 {
			dst = append(dst, p)
		}
	}
	return dst
}

// Request accounts one request to the home plus forwards to n sharers and
// their responses.
func (d *Directory) Request(forwards int) {
	d.st.Requests++
	d.st.Forwards += uint64(forwards)
	d.st.Responses += uint64(forwards)
}

// MemTsUpdate accounts a memory-timestamp update message to the home.
func (d *Directory) MemTsUpdate(n int) { d.st.MemTsMessages += uint64(n) }

// AddSharer records that proc now holds the line.
func (d *Directory) AddSharer(l memsys.Line, proc int) {
	d.entryFor(l).sharers |= 1 << proc
}

// RemoveSharer records that proc no longer holds the line (eviction or
// invalidation).
func (d *Directory) RemoveSharer(l memsys.Line, proc int) {
	if e := d.lines[l]; e != nil {
		e.sharers &^= 1 << proc
		if e.sharers == 0 {
			delete(d.lines, l)
		}
	}
}

// Stats returns the accumulated message counts.
func (d *Directory) Stats() Stats { return d.st }

// Lines returns how many lines currently have a non-empty sharer set.
func (d *Directory) Lines() int { return len(d.lines) }

// Validate cross-checks the directory against ground truth: holds reports,
// per line, which processors actually cache it. It returns the first
// inconsistency found, or nil. Tests call it with the detector's caches as
// the oracle.
func (d *Directory) Validate(holds func(l memsys.Line, proc int) bool) error {
	for l, e := range d.lines {
		for p := 0; p < d.procs; p++ {
			dirSays := e.sharers&(1<<p) != 0
			if dirSays != holds(l, p) {
				return fmt.Errorf("directory: line %v proc %d: directory=%v cache=%v",
					l, p, dirSays, holds(l, p))
			}
		}
	}
	return nil
}
