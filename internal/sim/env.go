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
// the global execution order. Write, SyncWrite, FlagSet, Compute and Unlock
// return nothing and return at once: their requests are placed in the global
// order and executed later, after the call has returned. Read, SyncRead, TAS,
// Lock and FlagWaitAtLeast need an answer (a value, whether this instance is
// the injected one, or a wake-up), and these calls are the thread's
// scheduling points: the thread parks until the engine has executed every
// request it posted, and the call returns the answer to the last one. A
// thread that posts 64 requests without an answer parks the same way. When
// the scheduler reaches the caller's requests before any other thread must
// run, the answer comes back on the same coroutine with no switch. Since a
// Body cannot see when its posted requests execute, the global order is the
// same as if every call had waited for its turn.
//
// Instruction accounting (which drives the order log and replay): Read,
// Write and each Lock/Unlock/FlagWait/FlagSet call commit one instruction;
// Compute(n) commits n; TAS and the internal spin reads commit none (they
// are sub-instruction micro-operations of the blocking primitives).
type Env struct {
	t   *threadCtx
	eng *Engine
}

// ThreadID returns the identity of the calling thread.
func (e *Env) ThreadID() int { return e.t.id }

// post queues r, which needs no answer, and returns before the engine
// executes it — unless the queue is now full, which parks the thread until
// it drains.
func (e *Env) post(r request) {
	t := e.t
	t.posted[t.tail] = r
	if t.tail++; t.tail == postCap {
		e.eng.wait(t)
	}
}

// ask queues r and parks the thread until the engine has executed it,
// returning its answer.
func (e *Env) ask(r request) response {
	t := e.t
	t.posted[t.tail] = r
	t.tail++
	return e.eng.wait(t)
}

// Read performs a data read of the word at a and returns its value.
func (e *Env) Read(a memsys.Addr) uint64 {
	return e.ask(request{kind: reqRead, addr: a, class: trace.Data}).value
}

// Write performs a data write of v to the word at a. It returns before the
// write is ordered.
func (e *Env) Write(a memsys.Addr, v uint64) {
	e.post(request{kind: reqWrite, addr: a, value: v, class: trace.Data})
}

// SyncRead performs a labeled synchronization read (§2.7.3).
func (e *Env) SyncRead(a memsys.Addr) uint64 {
	return e.ask(request{kind: reqRead, addr: a, class: trace.Sync}).value
}

// SyncWrite performs a labeled synchronization write. It returns before the
// write is ordered.
func (e *Env) SyncWrite(a memsys.Addr, v uint64) {
	e.post(request{kind: reqWrite, addr: a, value: v, class: trace.Sync})
}

// TAS atomically reads the sync word at a and, if it was zero, writes v.
// It returns the old value (zero means the TAS acquired the word). It is the
// micro-operation the Lock primitive is built from.
func (e *Env) TAS(a memsys.Addr, v uint64) uint64 {
	return e.ask(request{kind: reqTAS, addr: a, value: v}).value
}

// Compute models n cycles of thread-local computation (n instructions). It
// returns before the computation is ordered.
func (e *Env) Compute(n int) {
	if n <= 0 {
		return
	}
	e.post(request{kind: reqCompute, n: uint64(n)})
}

// blockOn parks the thread until another thread writes the word at a.
func (e *Env) blockOn(a memsys.Addr) {
	e.eng.block(e.t, a)
	e.eng.wait(e.t)
}

// Lock acquires the mutex at word l (a test-and-set spinlock built from
// labeled sync accesses). Each call is one countable dynamic synchronization
// instance for fault injection: when this instance is the injected one, the
// acquire and its matching release are silently removed (§3.4).
func (e *Env) Lock(l memsys.Addr) {
	resp := e.ask(request{kind: reqLockEnter, addr: l})
	if resp.skip {
		return
	}
	for e.TAS(l, 1) != 0 {
		e.blockOn(l)
	}
}

// Unlock releases the mutex at word l. If the matching Lock was removed by
// injection, the release is removed too. It returns before the release is
// ordered.
func (e *Env) Unlock(l memsys.Addr) {
	skip := e.eng.unskip(e.t, l)
	e.post(request{kind: reqUnlockEnter, addr: l})
	if !skip {
		e.SyncWrite(l, 0)
	}
}

// FlagSet publishes value v to the flag (condition) word at f. Only waits
// are injectable, so FlagSet is an ordinary labeled sync write, and it too
// returns before the write is ordered.
func (e *Env) FlagSet(f memsys.Addr, v uint64) {
	e.SyncWrite(f, v)
}

// FlagWaitAtLeast blocks until the flag word at f holds a value >= v. Each
// call is one countable synchronization instance: the injected instance
// returns immediately without waiting (§3.4). The spin reads are
// sub-instruction micro-operations — the whole wait commits exactly one
// instruction (its enter), so replayed executions need not reproduce the
// wakeup pattern.
func (e *Env) FlagWaitAtLeast(f memsys.Addr, v uint64) {
	resp := e.ask(request{kind: reqFlagWaitEnter, addr: f})
	if resp.skip {
		return
	}
	for e.ask(request{kind: reqRead, addr: f, class: trace.Sync, micro: true}).value < v {
		e.blockOn(f)
	}
}
