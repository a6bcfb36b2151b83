// Package directory implements the paper's proposed extension of CORD to
// directory-based coherence (§2.5: "A straightforward extension of this
// protocol to a directory-based system is possible, but in this paper we
// focus on systems (CMPs and SMPs) with snooping cache coherence").
//
// Under snooping, every CORD transaction — fetches, upgrades, explicit race
// checks, memory-timestamp updates — is a broadcast observed by all
// processors. Under a directory protocol the home node knows which caches
// hold each line, so:
//
//   - race checks and coherence requests become one request message to the
//     home plus one forward per actual holder (instead of procs-1 snoops);
//   - the pair of main-memory timestamps lives at the home node naturally,
//     so "broadcast" memory-timestamp updates become a single message to
//     the home instead of a bus transaction every cache must observe.
//
// The holders a directory would forward to are exactly the remote caches
// the snooping probe finds holding the line, so the detector's probe feeds
// this package's counters and no sharer state is kept here. Detection is
// therefore identical by construction; what changes is traffic, and that is
// the extension's point: message counts grow with actual sharing, not with
// machine size.
package directory

// Stats counts the point-to-point messages a directory protocol would carry
// for the same CORD activity a snooping bus broadcasts.
type Stats struct {
	// Requests are messages from a requesting cache to the home node
	// (fetches, upgrades and explicit race checks all take one).
	Requests uint64
	// Forwards are home-to-holder messages (race checks and invalidations
	// are forwarded only to actual holders).
	Forwards uint64
	// Responses are holder-to-requester replies carrying timestamps/data.
	Responses uint64
	// MemTsMessages are memory-timestamp updates: one message to the home
	// instead of a broadcast.
	MemTsMessages uint64
}

// Directory counts the home-node messages of one simulated machine.
type Directory struct {
	st Stats
}

// New returns a directory with zeroed counters. The counters keep no
// per-processor state, so the processor count is unused; the parameter
// remains because perfbench builds the directory with New(procs).
func New(procs int) *Directory { return &Directory{} }

// Request accounts one request to the home plus forwards to n holders and
// their responses.
func (d *Directory) Request(forwards int) {
	d.st.Requests++
	d.st.Forwards += uint64(forwards)
	d.st.Responses += uint64(forwards)
}

// MemTsUpdate accounts a memory-timestamp update message to the home.
func (d *Directory) MemTsUpdate(n int) { d.st.MemTsMessages += uint64(n) }

// Stats returns the accumulated message counts.
func (d *Directory) Stats() Stats { return d.st }
