// Package trace defines the event vocabulary shared between the execution
// engine (internal/sim) and every detector: memory access events, race
// reports, and the observer interfaces detectors implement. Keeping these
// types in a leaf package lets the CORD mechanism, the baselines, and the
// engine depend on a common boundary without import cycles.
package trace

import (
	"fmt"

	"cord/internal/memsys"
)

// Kind distinguishes reads from writes.
type Kind uint8

// Access kinds.
const (
	Read Kind = iota
	Write
)

// String names the kind.
func (k Kind) String() string {
	if k == Read {
		return "RD"
	}
	return "WR"
}

// Class distinguishes data accesses from synchronization accesses. The
// hardware learns the class from specially labeled load/store instructions in
// the synchronization library (§2.7.3); the simulator labels accesses issued
// by the sync primitives directly.
type Class uint8

// Access classes.
const (
	Data Class = iota
	Sync
)

// String names the class.
func (c Class) String() string {
	if c == Data {
		return "data"
	}
	return "sync"
}

// Access is one dynamic shared-memory access event, delivered to detectors in
// global execution order.
type Access struct {
	// Seq is the global sequence number of the access (0-based, dense).
	Seq uint64
	// Thread is the issuing thread (== processor in the default pinning).
	Thread int
	// Proc is the processor the thread is currently running on. It differs
	// from Thread only after a migration event.
	Proc int
	// Addr is the word-aligned byte address accessed.
	Addr memsys.Addr
	// Kind is Read or Write.
	Kind Kind
	// Class is Data or Sync.
	Class Class
	// Instr is the thread-local instruction count at this access, used by
	// the order recorder's log entries.
	Instr uint64
	// Instrs is how many instructions this access commits: 1 for ordinary
	// loads and stores, 0 for the sub-instruction micro-accesses of a
	// test-and-set. The order recorder needs it to place post-access epoch
	// boundaries.
	Instrs uint8
}

// String renders the access for diagnostics.
func (a Access) String() string {
	return fmt.Sprintf("T%d %s %s %s #%d", a.Thread, a.Kind, a.Class, a.Addr, a.Seq)
}

// Ref identifies one side of a reported race: which thread, which access
// kind, and the global sequence number of the access if known. Detectors with
// full histories (Ideal) know both sequence numbers exactly; cache-bounded
// detectors know the second access exactly and the first only by thread and
// kind (the hardware keeps a timestamp, not a pointer to the instruction).
type Ref struct {
	Thread int
	Kind   Kind
	Seq    uint64 // global sequence number; SeqUnknown if the hardware lost it
}

// SeqUnknown marks a Ref whose originating access is no longer identifiable.
const SeqUnknown = ^uint64(0)

// Race is one detected data race: two conflicting, unordered data accesses.
// First is the earlier access (the one whose timestamp was found in an access
// history), Second is the access that discovered the race.
type Race struct {
	Addr   memsys.Addr
	First  Ref
	Second Ref
}

// String renders the race for diagnostics.
func (r Race) String() string {
	return fmt.Sprintf("race @%s: T%d %s ... T%d %s", r.Addr,
		r.First.Thread, r.First.Kind, r.Second.Thread, r.Second.Kind)
}

// Report is what a detector returns for one observed access: any data races
// the access uncovered, plus bus-activity accounting consumed by the timing
// model (only the CORD detector populates the traffic fields).
type Report struct {
	Races []Race
	// CheckRequests counts race-check broadcasts on the address/timestamp
	// bus caused by this access (cache-miss checks are part of the normal
	// miss traffic and not counted here).
	CheckRequests int32
	// MemTsUpdates counts main-memory-timestamp broadcast transactions
	// triggered by displacements this access caused.
	MemTsUpdates int32
}

// Observer is a detector attached to an execution. OnAccess is called once
// per shared-memory access, in global order. ThreadDone is called when a
// thread finishes; Migrate when the scheduler moves a thread to another
// processor.
type Observer interface {
	// Name identifies the configuration in experiment output.
	Name() string
	// OnAccess processes one access and returns what it found.
	OnAccess(a Access) Report
	// Migrate informs the detector that thread moved to processor proc,
	// having committed instr instructions so far.
	Migrate(thread, proc int, instr uint64)
	// ThreadDone informs the detector that a thread finished having
	// committed totalInstr instructions (the order recorder closes the
	// thread's final log epoch here).
	ThreadDone(thread int, totalInstr uint64)
	// Finish flushes end-of-run state after all threads are done.
	Finish()
}

// FuncObserver adapts a bare function to the Observer interface; tests use it
// to tap the event stream.
type FuncObserver struct {
	Label string
	Fn    func(Access)
}

// Name implements Observer.
func (f *FuncObserver) Name() string { return f.Label }

// OnAccess implements Observer.
func (f *FuncObserver) OnAccess(a Access) Report {
	if f.Fn != nil {
		f.Fn(a)
	}
	return Report{}
}

// Migrate implements Observer.
func (f *FuncObserver) Migrate(thread, proc int, instr uint64) {}

// ThreadDone implements Observer.
func (f *FuncObserver) ThreadDone(thread int, totalInstr uint64) {}

// Finish implements Observer.
func (f *FuncObserver) Finish() {}
