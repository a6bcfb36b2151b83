package sim

import (
	"errors"

	"cord/internal/memsys"
	"cord/internal/trace"
)

// errAborted is panicked by an Env call whose coroutine the engine stopped
// while it was parked (the run ended early). It unwinds the Body, running its
// deferred calls; the recover in spawn turns it into a clean exit. An Env
// call made while unwinding panics errAborted again.
var errAborted = errors.New("sim: run aborted")

// Env is a thread's handle to the simulated machine. All methods may only be
// called from within the Program.Body invocation that received the Env.
//
// Every call posts a request to the thread's queue; the engine executes a
// thread's requests in the order they were posted, each at its own place in
// the global execution order. Only Read and SyncRead return a value, and
// only these calls are the thread's scheduling points: the thread parks until
// the engine has executed every request it posted, and the call returns the
// value the last one read. Every other call returns at once, before its
// request is ordered — Lock, Unlock and FlagWaitAtLeast included: the engine
// runs a blocking primitive at the head of the queue, one step per pick, and
// the requests posted after it wait behind it while it blocks. A thread that
// posts 64 requests without a Read parks the same way. When the scheduler
// reaches the caller's requests before any other thread must run, the answer
// comes back on the same coroutine with no switch. Since a Body cannot see
// when its posted requests execute, the global order is the same as if every
// call had waited for its turn.
//
// A read whose value only feeds later writes need not park either. Each
// thread has an accumulator: Load sets it to the value read, LoadAdd adds the
// value read to it, and Store writes it plus an addend, all posted. Add and
// AddTo are the read-modify-write spelled that way.
//
// Instruction accounting (which drives the order log and replay): each read
// and write, and each Lock/Unlock/FlagWait/FlagSet call, commits one
// instruction; Compute(n) commits n; Lock's test-and-set and the internal
// spin reads commit none (they are sub-instruction micro-operations of the
// blocking primitives).
type Env struct {
	t   *threadCtx
	eng *Engine
}

// post queues r, which needs no answer, and returns before the engine
// executes it — unless the queue is now full, which parks the thread until
// it drains.
func (e *Env) post(r request) {
	t := e.t
	t.posted[t.tail] = r
	if t.tail++; t.tail == e.eng.postCap {
		e.eng.wait(t)
	}
}

// ask queues r and parks the thread until the engine has executed it,
// returning the value it left in the accumulator.
func (e *Env) ask(r request) uint64 {
	t := e.t
	t.posted[t.tail] = r
	t.tail++
	e.eng.wait(t)
	return t.acc
}

// Read performs a data read of the word at a and returns its value.
func (e *Env) Read(a memsys.Addr) uint64 {
	return e.ask(request{kind: reqRead, addr: a, class: trace.Data})
}

// Write performs a data write of v to the word at a. It returns before the
// write is ordered.
func (e *Env) Write(a memsys.Addr, v uint64) {
	e.post(request{kind: reqWrite, addr: a, value: v, class: trace.Data})
}

// Load performs a data read of the word at a into the thread's accumulator.
// It returns before the read is ordered.
func (e *Env) Load(a memsys.Addr) {
	e.post(request{kind: reqRead, addr: a, class: trace.Data})
}

// LoadAdd performs a data read of the word at a and adds its value to the
// thread's accumulator. It returns before the read is ordered.
func (e *Env) LoadAdd(a memsys.Addr) {
	e.post(request{kind: reqLoadAdd, addr: a})
}

// Store performs a data write of the thread's accumulator plus d to the word
// at a, leaving the accumulator as it is. It returns before the write is
// ordered.
func (e *Env) Store(a memsys.Addr, d uint64) {
	e.post(request{kind: reqStore, addr: a, value: d})
}

// AddTo reads the word at src and writes its value plus d to the word at dst:
// Load(src), then Store(dst, d). It returns before either access is ordered.
func (e *Env) AddTo(dst, src memsys.Addr, d uint64) {
	e.Load(src)
	e.Store(dst, d)
}

// Add adds d to the word at a with a data read and a data write, exactly as
// Write(a, Read(a)+d) does, but returns before either access is ordered.
func (e *Env) Add(a memsys.Addr, d uint64) { e.AddTo(a, a, d) }

// SyncRead performs a labeled synchronization read (§2.7.3).
func (e *Env) SyncRead(a memsys.Addr) uint64 {
	return e.ask(request{kind: reqRead, addr: a, class: trace.Sync})
}

// Compute models n cycles of thread-local computation (n instructions). It
// returns before the computation is ordered.
func (e *Env) Compute(n int) {
	if n <= 0 {
		return
	}
	e.post(request{kind: reqCompute, value: uint64(n)})
}

// Lock acquires the mutex at word l (a test-and-set spinlock built from
// labeled sync accesses): its enter, then a test-and-set, and on failure a
// block until another thread writes l, a no-op wake-up and the test-and-set
// again. Each call is
// one countable dynamic synchronization instance for fault injection: when
// this instance is the injected one, the acquire and its matching release are
// silently removed (§3.4). It returns before the acquire is ordered.
func (e *Env) Lock(l memsys.Addr) {
	e.post(request{kind: reqLock, addr: l})
}

// Unlock releases the mutex at word l: its enter, then a sync write of zero.
// If the matching Lock was removed by injection, the write is removed too. It
// returns before the release is ordered.
func (e *Env) Unlock(l memsys.Addr) {
	e.post(request{kind: reqUnlock, addr: l})
}

// FlagSet publishes value v to the flag (condition) word at f. Only waits
// are injectable, so FlagSet is an ordinary labeled sync write, and it
// returns before the write is ordered.
func (e *Env) FlagSet(f memsys.Addr, v uint64) {
	e.post(request{kind: reqWrite, addr: f, value: v, class: trace.Sync})
}

// FlagWaitAtLeast waits until the flag word at f holds a value >= v: its
// enter, then a sync spin read, and while the value is short a block until
// another thread writes f, a no-op wake-up and the spin read again. Each call
// is one countable synchronization instance: the injected instance ends after
// its enter without waiting (§3.4). The spin reads are sub-instruction
// micro-operations — the whole wait commits exactly one instruction (its
// enter), so replayed executions need not reproduce the wakeup pattern. It
// returns before the wait is ordered; the thread's next Read parks until the
// wait is over.
func (e *Env) FlagWaitAtLeast(f memsys.Addr, v uint64) {
	e.post(request{kind: reqFlagWait, addr: f, value: v})
}
