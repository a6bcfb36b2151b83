// Package sim is the execution engine of the simulated chip-multiprocessor.
// Workload threads are Go functions programmed against the Env API; the
// engine runs them as coroutines under a deterministic scheduler, serializes
// every shared-memory access into a global order, delivers the access stream
// to the attached detectors, advances per-thread virtual time through a
// pluggable cost model, and implements the paper's methodology hooks:
// sync-removal fault injection (§3.4), thread migration (§2.7.4), and
// log-driven deterministic replay (§2.7.1).
//
// Each thread's Body runs in an iter.Pull coroutine, and only one of them
// runs at a time. Every Env call posts a request to its thread's FIFO queue.
// A thread parks only for a value it branches on: Read and SyncRead park
// until the thread's queue drains, and so does a post that fills the queue.
// Every other call returns at once, before the engine has placed its request
// in the global order. That includes the blocking primitives: Lock, Unlock
// and FlagWaitAtLeast are each one request that the engine runs as a
// micro-program at the head of the queue, one step per pick (an enter, a TAS
// or spin read, a block, a no-op wake-up), and the Body's later requests wait
// behind it. A read whose value only feeds a later write is posted too: it
// loads a per-thread accumulator that a posted store writes back. A parked
// thread runs the scheduler on its own coroutine. At each pick the scheduler
// executes one step of the picked thread's oldest request in place, with
// observers, cost model, jitter and OnEpoch exactly as if that thread had
// waited for its turn, so the global order does not depend on how far a Body
// ran ahead. When the parked caller's own queue drains it returns its answer
// with no coroutine switch. When another thread's queue drains while its Body
// still runs, the caller hands that thread to Run and yields; Run resumes it,
// and it schedules in turn once it parks. Every hand-off is a direct
// coroutine switch, with no channel and no trip through the Go scheduler.
// When a run ends early (cancellation, an error, a deadlock, a panic
// elsewhere), Run stops every coroutine still parked in an Env call: its
// yield returns false, the call panics errAborted, and the Body unwinds
// through its deferred calls before Run returns.
//
// An execution is a pure function of its Config: the Seed drives all
// scheduling jitter, workloads communicate only through the simulated
// memory, and nothing reads the wall clock or global randomness, so the
// same Config always reproduces the same interleaving, access stream, and
// Result. Each Engine is also fully self-contained — no package-level
// mutable state — so any number of engines can run concurrently on host
// goroutines. Together these two properties let the experiment package
// decompose a campaign into independent runs identified by their seeds and
// fan them out across workers without affecting results: seeds, not host
// execution order, define what happens.
package sim

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"cord/internal/memsys"
	"cord/internal/record"
	"cord/internal/trace"
)

// Program is a runnable multi-threaded workload. Body is invoked once per
// thread; all cross-thread communication must go through the Env (the
// simulated shared memory), never through shared Go state, so that an
// execution is fully determined by the engine's scheduling decisions.
type Program struct {
	Name    string
	Threads int
	// Init pre-loads memory values before any thread starts.
	Init func(mem *memsys.Memory)
	// Body is the per-thread code.
	Body func(t int, env *Env)
}

// Config controls one execution.
type Config struct {
	// Procs is the number of processors (default 4). Threads beyond Procs
	// share processors round-robin.
	Procs int
	// Seed drives all scheduling jitter; identical seeds reproduce
	// identical executions.
	Seed uint64
	// Jitter is the maximum random extra cost (in cycles) added to each
	// operation, to vary interleavings across seeds. Zero disables it.
	Jitter uint64
	// Cost prices operations; nil selects a SimpleCost model.
	Cost CostModel
	// Observers receive the access stream in global order.
	Observers []trace.Observer
	// Primary, when non-nil, is the observer whose Reports feed the cost
	// model (the CORD detector in performance runs). It must also appear
	// in Observers.
	Primary trace.Observer
	// InjectSkip, when non-zero, removes the InjectSkip-th dynamic
	// synchronization instance (1-based) in global execution order: a lock
	// acquire together with its matching release, or a single flag wait
	// (§3.4).
	InjectSkip uint64
	// InjectThread/InjectThreadNth name the injected instance in an
	// interleaving-independent way: remove thread InjectThread's
	// InjectThreadNth-th own sync instance. Used by replay, which must
	// remove the same instance the recorded run removed even though the
	// global interleaving of concurrent epochs may differ. Active when
	// InjectThreadNth is non-zero; InjectSkip is ignored then.
	InjectThread    int
	InjectThreadNth uint64
	// MigrateEvery, when non-zero, migrates the issuing thread to the next
	// processor after every MigrateEvery-th dynamic sync instance.
	MigrateEvery uint64
	// ReplayEpochs, when non-nil, switches the scheduler to log-driven
	// replay: epochs run in order, each granting its thread a quota of
	// committed instructions. The engine replays them as a closed
	// ReplayFeed and never writes into the slice, so one schedule may be
	// replayed any number of times.
	ReplayEpochs []record.Epoch
	// ReplayFeed, when non-nil, also selects replay mode but sources the
	// epoch schedule incrementally: the engine consumes epochs as a producer
	// appends them and blocks — still honoring Cancel — when it runs ahead
	// of the feed. Exactly one of ReplayEpochs and ReplayFeed should be set.
	ReplayFeed *ReplayFeed
	// OnEpoch, when non-nil in replay mode, is called each time the
	// scheduler advances into epoch idx (0-based; the first call is
	// OnEpoch(0) before any operation runs, and a final call with idx ==
	// total epochs marks the end of the schedule). It is the
	// synchronization point online detection uses for duty-cycling and race
	// snapshots. Like the Observers, it runs either on the goroutine that
	// called Run or on whichever thread coroutine is serving a request; the
	// engine runs strictly one of these at a time, each switch ordered
	// before the next, so callbacks may toggle observer state without
	// locking.
	OnEpoch func(idx int)
	// Cancel, when non-nil, aborts the run once the channel is closed: the
	// engine unwinds every thread and Run returns ErrCanceled. Wire a
	// context's Done() channel here to propagate request cancellation into
	// a simulation (the cordd service does exactly that). Cancellation is
	// checked between scheduled operations, so a run stops promptly but
	// never mid-access.
	Cancel <-chan struct{}
	// MaxOps aborts runaway executions (default 50M committed ops).
	MaxOps uint64
}

// Result summarizes one execution. The json tags are the stable wire
// encoding used by exported run artifacts; the memory image is deliberately
// excluded (it is not a metric, and footprints vary by workload scale).
type Result struct {
	// Cycles is the finishing virtual time (max over threads).
	Cycles uint64 `json:"cycles"`
	// Ops is the total committed instruction count.
	Ops uint64 `json:"ops"`
	// Accesses is the number of shared-memory access events delivered.
	Accesses uint64 `json:"accesses"`
	// SyncInstances is the number of countable dynamic sync instances
	// (lock acquires and flag waits, §3.4) that occurred.
	SyncInstances uint64 `json:"sync_instances"`
	// InjectedThread and InjectedThreadNth identify, per-thread, the sync
	// instance an injection removed (InjectedThread is -1 when nothing
	// fired). Replay passes these back as InjectThread/InjectThreadNth.
	InjectedThread    int    `json:"injected_thread"`
	InjectedThreadNth uint64 `json:"injected_thread_nth"`
	// ReadHash fingerprints each thread's sequence of read values; replay
	// must reproduce it exactly.
	ReadHash []uint64 `json:"read_hash"`
	// ThreadInstr is each thread's committed instruction count.
	ThreadInstr []uint64 `json:"thread_instr"`
	// Mem is the final memory image.
	Mem *memsys.Memory `json:"-"`
	// Hung reports that the execution deadlocked (possible when injection
	// removes a barrier-internal primitive); partial results are valid.
	Hung bool `json:"hung"`
}

// ErrReplayDivergence reports that a replayed execution could not follow the
// log (the log is inconsistent with the program or injection plan).
var ErrReplayDivergence = errors.New("sim: replay diverged from log")

// ErrCanceled reports that a run was abandoned because its Config.Cancel
// channel closed before the program finished. The partial execution is
// discarded; no Result is returned.
var ErrCanceled = errors.New("sim: run canceled")

type threadState int

const (
	stReady threadState = iota
	stBlocked
	stDone
)

// reqKind names a request. The first five are one step each; reqLock, reqUnlock
// and reqFlagWait are the blocking primitives, which the engine runs as
// micro-programs at the head of the thread's queue, one step per pick.
type reqKind uint8

const (
	reqRead    reqKind = iota // accumulator = the word's value
	reqLoadAdd                // accumulator += the word's value
	reqWrite                  // the word = value
	reqStore                  // the word = accumulator + value
	reqCompute                // value cycles of local work
	reqLock
	reqUnlock
	reqFlagWait // until the word holds at least value
)

// The steps of a blocking primitive. Every step is a pick of its own.
const (
	stepEnter uint8 = iota // count the sync instance (Lock, FlagWait) and commit the call's instruction
	stepTest               // Lock's TAS, FlagWait's spin read, Unlock's release write
	stepWake               // the no-op pick of a thread woken from a block
)

type request struct {
	addr  memsys.Addr
	value uint64
	kind  reqKind
	class trace.Class // of reqRead and reqWrite
	step  uint8       // of a blocking primitive
}

// maxPosted bounds a thread's queue of posted requests. A Body that fills the
// queue parks until it drains, so one that never reads still reaches the
// scheduler's Cancel and op-budget checks.
const maxPosted = 64

// threadCtx is one simulated thread: its scheduler state, its queue of
// posted requests, and the pull coroutine its Body runs in. next resumes the
// Body until it parks in an Env call or returns; yield is the Body's side of
// that switch; stop unwinds a parked Body (see spawn).
//
// The queue is posted[head:tail]. The Body runs only while it is empty: it
// fills the queue, parks, and is resumed once the engine has executed every
// request in it, so the queue never wraps.
type threadCtx struct {
	id       int
	proc     int
	vtime    uint64
	instr    uint64 // committed instructions
	syncN    uint64 // own countable sync instances (InjectThreadNth)
	state    threadState
	block    memsys.Addr
	head     int
	tail     int
	acc      uint64 // the accumulator: reads load it, a parked call returns it
	returned bool   // the Body returned; the thread is done once its queue drains
	hash     uint64 // FNV-1a over read values
	env      Env    // the handle passed to Body; env.t points back here
	next     func() (struct{}, bool)
	yield    func(struct{}) bool
	stop     func()
	err      error // a Body panic, recovered inside the coroutine
	posted   [maxPosted]request
}

type lockKey struct {
	thread int
	addr   memsys.Addr
}

// Engine executes one Program under one Config. An Engine is single-use.
type Engine struct {
	cfg       Config
	prog      Program
	mem       *memsys.Memory
	threads   []*threadCtx
	pcg       rand.PCG // rng's state, held inline
	rng       *rand.Rand
	seq       uint64
	ops       uint64
	syncN     uint64
	injThread int
	injNth    uint64
	skipped   map[lockKey]int // lock pairs removed by injection (count, to nest)
	primIdx   int
	postCap   int // queue length that parks a posting thread, at most maxPosted

	// replay state
	epochs       []record.Epoch // the schedule from epochBase on
	epochBase    int            // consumed epochs dropped from the front of epochs
	epochIdx     int            // the current epoch's position in epochs
	epochRun     uint32         // instructions committed in the current epoch
	epochFresh   bool           // epoch just began: drain the thread's micro-ops first
	replayErr    error          // sticky divergence detected while charging quota
	feed         *ReplayFeed    // non-nil in replay mode; Config.ReplayEpochs arrive closed
	feedCanceled bool           // Cancel fired while waiting on the feed

	lastAccess trace.Access

	// run state, shared by Run and the coroutines that run the scheduler
	inline   bool       // start-up is over and no abort began: parked threads schedule in place
	handoff  *threadCtx // the thread Run resumes next; nil ends the run
	hung     bool
	runErr   error
	panicVal any    // raised while a coroutine ran the scheduler; Run re-raises it
	resumes  uint64 // coroutine resumes, for tests of the switch rate
}

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

// New builds an engine for one run.
func New(cfg Config, prog Program) *Engine {
	if cfg.Procs <= 0 {
		cfg.Procs = 4
	}
	if cfg.MaxOps == 0 {
		cfg.MaxOps = 50_000_000
	}
	if cfg.Cost == nil {
		cfg.Cost = SimpleCost{}
	}
	feed := cfg.ReplayFeed
	if cfg.ReplayEpochs != nil {
		feed = closedFeed(cfg.ReplayEpochs)
	}
	e := &Engine{
		cfg:        cfg,
		prog:       prog,
		mem:        memsys.NewMemory(),
		threads:    make([]*threadCtx, prog.Threads),
		skipped:    make(map[lockKey]int),
		primIdx:    -1,
		postCap:    maxPosted,
		injThread:  -1,
		feed:       feed,
		epochFresh: true,
	}
	e.pcg.Seed(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15)
	e.rng = rand.New(&e.pcg)
	for i, o := range cfg.Observers {
		if o == cfg.Primary {
			e.primIdx = i
		}
	}
	ts := make([]threadCtx, prog.Threads)
	for i := range ts {
		t := &ts[i]
		t.id, t.proc, t.hash = i, i%cfg.Procs, fnvOffset
		t.env.t, t.env.eng = t, e
		e.threads[i] = t
	}
	return e
}

// Run executes the program to completion (or deadlock) and returns the
// result. It is not safe to call twice.
//
// After the start-up phase Run mostly resumes coroutines: a parked thread
// runs the scheduler itself, so Run regains control just to resume a thread
// whose queue drained (e.handoff), to schedule after a Body returned, or to
// end the run.
func (e *Engine) Run() (Result, error) {
	if e.prog.Init != nil {
		e.prog.Init(e.mem)
	}
	for _, t := range e.threads {
		e.spawn(t)
	}
	// Unwind whatever is still parked on every exit path, including a panic
	// out of an observer or callback.
	defer e.abortAll()
	// Run every thread up to its first scheduling point (or completion)
	// before entering the deterministic loop.
	for _, t := range e.threads {
		if e.resume(t) && t.err != nil {
			return Result{}, t.err
		}
	}

	if e.feed != nil && e.cfg.OnEpoch != nil {
		e.cfg.OnEpoch(0)
	}
	e.inline = true
	for t := e.schedule(); t != nil; {
		if !e.resume(t) {
			t = e.handoff
			continue
		}
		if t.err != nil {
			e.runErr = t.err
			break
		}
		t = e.schedule()
	}
	if e.panicVal != nil {
		panic(e.panicVal)
	}
	if e.runErr != nil {
		return Result{}, e.runErr
	}
	for _, o := range e.cfg.Observers {
		o.Finish()
	}
	res := Result{
		Ops:               e.ops,
		Accesses:          e.seq,
		SyncInstances:     e.syncN,
		Mem:               e.mem,
		Hung:              e.hung,
		InjectedThread:    e.injThread,
		InjectedThreadNth: e.injNth,
		ReadHash:          make([]uint64, 0, len(e.threads)),
		ThreadInstr:       make([]uint64, 0, len(e.threads)),
	}
	for _, t := range e.threads {
		if t.vtime > res.Cycles {
			res.Cycles = t.vtime
		}
		res.ReadHash = append(res.ReadHash, t.hash)
		res.ThreadInstr = append(res.ThreadInstr, t.instr)
	}
	return res, nil
}

// next checks Cancel, picks the thread whose request goes next in the global
// order, and checks the op budget. It returns nil when the run is over —
// every thread done, a deadlock (e.hung), or an error in e.runErr.
func (e *Engine) next() *threadCtx {
	for {
		if e.cfg.Cancel != nil {
			select {
			case <-e.cfg.Cancel:
				e.runErr = fmt.Errorf("%w: %s", ErrCanceled, e.prog.Name)
				return nil
			default:
			}
		}
		t := e.pick()
		if t == nil {
			if e.allDone() {
				return nil
			}
			if e.feed != nil && e.replayRecoverable() {
				continue
			}
			if e.feedCanceled {
				continue // Cancel fired during a feed wait: surface it at the top
			}
			e.hung = true
			return nil
		}
		if e.ops > e.cfg.MaxOps || e.seq > 8*e.cfg.MaxOps {
			e.runErr = fmt.Errorf("sim: %s exceeded op budget %d", e.prog.Name, e.cfg.MaxOps)
			return nil
		}
		return t
	}
}

// wait parks t's Body until the engine has executed every request t posted.
// Once start-up is over t runs the scheduler itself: when its own queue is the
// one that drains, it returns with no coroutine switch; otherwise it hands the
// thread to resume (nil when the run is over) to Run and yields until Run
// resumes it.
func (e *Engine) wait(t *threadCtx) {
	if e.inline {
		if e.handoff = e.scheduleCaught(); e.handoff == t {
			return
		}
	}
	if !t.yield(struct{}{}) {
		t.head, t.tail = 0, 0
		panic(errAborted)
	}
}

// scheduleCaught is schedule on a thread's coroutine. A panic raised there —
// by an observer, the cost model or OnEpoch — is caught and re-raised by
// Run, so it leaves Run with its own value and never unwinds the Body.
func (e *Engine) scheduleCaught() (t *threadCtx) {
	defer func() {
		if r := recover(); r != nil {
			e.panicVal, t = r, nil
		}
	}()
	return e.schedule()
}

// schedule runs the global order. At each pick it executes one step of the
// picked thread's oldest posted request. It returns the first thread whose
// queue drains while its Body still runs, to be resumed with the answer, or
// nil when the run is over. A thread whose Body returned is done once its queue
// drains.
func (e *Engine) schedule() *threadCtx {
	for {
		t := e.next()
		if t == nil {
			return nil
		}
		if err := e.exec(t); err != nil {
			e.runErr = err
			return nil
		}
		if t.head < t.tail {
			continue
		}
		t.head, t.tail = 0, 0
		if !t.returned {
			return t
		}
		e.retire(t)
	}
}

// exec executes one step of t's oldest posted request, dequeues it once it is
// done, and surfaces a sticky replay divergence.
func (e *Engine) exec(t *threadCtx) error {
	done, err := e.process(t, &t.posted[t.head])
	if done {
		t.head++
	}
	if err == nil {
		err = e.replayErr
	}
	return err
}

func (e *Engine) allDone() bool {
	for _, t := range e.threads {
		if t.state != stDone {
			return false
		}
	}
	return true
}

// resume switches to t's coroutine until it parks in an Env call or its
// Body returns. It reports whether the Body returned; t.err then holds a
// panic, if the Body raised one. A returned Body with nothing left in its
// queue retires at once.
func (e *Engine) resume(t *threadCtx) bool {
	e.resumes++
	if _, ok := t.next(); ok {
		return false
	}
	t.returned = true
	if t.head == t.tail {
		e.retire(t)
	}
	return true
}

// retire marks a thread whose Body returned and whose queue drained done.
// The observers hear of it unless the Body returned during start-up
// without a single Env call.
func (e *Engine) retire(t *threadCtx) {
	t.state = stDone
	if !e.inline {
		return
	}
	for _, o := range e.cfg.Observers {
		o.ThreadDone(t.id, t.instr)
	}
}

// abortAll unwinds every thread that has not finished. Stopping a coroutine
// that already returned, or never started, is a no-op. An Env call made
// while a Body unwinds schedules nothing: it panics errAborted again.
func (e *Engine) abortAll() {
	e.inline = false
	for _, t := range e.threads {
		t.state = stDone
		t.stop()
	}
}

// pick selects the next thread to run: in normal mode the runnable thread
// with the minimum virtual time (ties by id); in replay mode the thread named
// by the current epoch.
func (e *Engine) pick() *threadCtx {
	if e.feed != nil {
		return e.pickReplay()
	}
	var best *threadCtx
	for _, t := range e.threads {
		if t.state != stReady {
			continue
		}
		if best == nil || t.vtime < best.vtime {
			best = t
		}
	}
	return best
}

// reqWidth is how many instructions a request's next step would commit: zero
// for the sub-instruction micro-operations (test-and-set, a flag wait's spin
// read, wake-from-block resumption), which the order log cannot see directly.
func reqWidth(r *request) uint64 {
	switch r.kind {
	case reqCompute:
		return r.value
	case reqLock, reqFlagWait:
		if r.step != stepEnter {
			return 0
		}
	}
	return 1
}

// pickReplay returns the next thread to run under the log's epoch schedule.
//
// Epoch semantics: entry k says "thread T committed Instr instructions at
// logical time Time". Sub-instruction micro-operations (a test-and-set's
// accesses) execute at the *start* of the epoch that follows the clock
// change they caused — so each fresh epoch first drains its thread's
// pending zero-width requests, then runs committed instructions up to the
// quota, then advances. A quota-complete epoch advances without draining:
// trailing micro-ops belong to the thread's next epoch, which is where the
// recorded clock placed them.
func (e *Engine) pickReplay() *threadCtx {
	for {
		if e.epochIdx >= len(e.epochs) {
			if e.pullEpochs() {
				continue
			}
			break
		}
		ep := e.epochs[e.epochIdx]
		t := e.threads[ep.Thread]
		if t.state == stDone {
			// Log promised more than the thread executed (possible only
			// on log/program mismatch); consume the epoch.
			e.advanceEpoch()
			continue
		}
		if e.epochFresh {
			if t.state == stReady && reqWidth(&t.posted[t.head]) == 0 {
				return t // drain micro-ops at epoch start
			}
			e.epochFresh = false
		}
		if e.epochRun >= ep.Instr {
			e.advanceEpoch()
			continue
		}
		if t.state == stReady {
			return t
		}
		return nil // blocked mid-epoch: replayRecoverable decides
	}
	// All epochs consumed and the feed closed: let any remaining runnable
	// thread finish. A canceled feed wait also lands here with nothing
	// runnable-by-schedule; returning nil then lets the run loop surface
	// ErrCanceled instead of draining extra operations.
	if e.feedCanceled {
		return nil
	}
	for _, t := range e.threads {
		if t.state == stReady {
			return t
		}
	}
	return nil
}

// pullEpochs extends e.epochs from the feed, blocking until the producer
// appends more, closes the feed (returns false), or Cancel fires (returns
// false with feedCanceled set so the run loop reports ErrCanceled rather
// than a hang). When every epoch so far is consumed it first drops them, so
// a feed-driven replay holds only the epochs it has not run yet.
func (e *Engine) pullEpochs() bool {
	if e.feedCanceled {
		return false
	}
	if e.epochIdx == len(e.epochs) {
		e.epochBase += e.epochIdx
		e.epochs, e.epochIdx = e.epochs[:0], 0
	}
	for {
		eps, closed, wake := e.feed.take(e.epochs)
		if len(eps) > len(e.epochs) {
			e.epochs = eps
			return true
		}
		if closed {
			return false
		}
		if e.cfg.Cancel != nil {
			select {
			case <-wake:
			case <-e.cfg.Cancel:
				e.feedCanceled = true
				return false
			}
		} else {
			<-wake
		}
	}
}

func (e *Engine) advanceEpoch() {
	e.epochIdx++
	e.epochRun = 0
	e.epochFresh = true
	if e.cfg.OnEpoch != nil {
		e.cfg.OnEpoch(e.epochBase + e.epochIdx)
	}
}

// replayRecoverable handles a blocked designated thread by looking for a
// concurrent (equal-time) epoch whose thread can run first; it reorders the
// two epochs (requeueing the blocked epoch's remaining instruction quota)
// and reports whether progress is possible. Conflicting accesses never share
// a logical time, so this reordering is always legal.
func (e *Engine) replayRecoverable() bool {
	if e.epochIdx >= len(e.epochs) {
		return false
	}
	cur := e.epochs[e.epochIdx]
	for j := e.epochIdx + 1; ; {
		if j >= len(e.epochs) {
			// With an open feed a concurrent equal-time epoch may still be
			// in flight: the stream is sorted by Time, so keep pulling until
			// an epoch beyond cur.Time proves no more can arrive (or the
			// feed closes / the run is canceled). Leave j in place so the
			// freshly pulled epoch is the next one examined.
			if e.pullEpochs() {
				continue
			}
			return false
		}
		if e.epochs[j].Time != cur.Time {
			return false
		}
		t := e.threads[e.epochs[j].Thread]
		if t.state == stReady {
			e.epochs[e.epochIdx].Instr -= e.epochRun
			e.epochs[e.epochIdx], e.epochs[j] = e.epochs[j], e.epochs[e.epochIdx]
			e.epochRun = 0
			e.epochFresh = true
			return true
		}
		j++
	}
}

// process executes one step of a request of thread t and reports whether the
// request is done.
func (e *Engine) process(t *threadCtx, req *request) (bool, error) {
	switch req.kind {
	case reqRead:
		t.acc = e.read(t, req.addr, req.class)
	case reqLoadAdd:
		t.acc += e.read(t, req.addr, trace.Data)
	case reqWrite:
		e.write(t, req.addr, req.value, req.class)
	case reqStore:
		e.write(t, req.addr, t.acc+req.value, trace.Data)
	case reqCompute:
		e.advance(t, e.cfg.Cost.ComputeCost(t.proc, req.value), req.value)
	case reqLock, reqFlagWait:
		return e.waitStep(t, req), nil
	case reqUnlock:
		if req.step == stepEnter {
			e.advance(t, 0, 1)
			if e.unskip(t, req.addr) {
				return true, nil
			}
			req.step = stepTest
			return false, nil
		}
		e.write(t, req.addr, 0, trace.Sync)
	default:
		return false, fmt.Errorf("sim: thread %d issued unknown request %d", t.id, req.kind)
	}
	return true, nil
}

// waitStep executes one step of a Lock or a FlagWaitAtLeast and reports
// whether the primitive is done. The enter counts the sync instance; the
// injected one ends there. Each test — Lock's TAS, FlagWait's spin read —
// either ends the primitive or blocks the thread on the word, and the first
// pick after the wake-up is a no-op that leads to the next test. Blocking
// right after the test closes the check-then-block window: a write ordered
// later always finds the thread already in stBlocked and wakes it.
func (e *Engine) waitStep(t *threadCtx, req *request) bool {
	switch req.step {
	case stepEnter:
		skip := e.countSyncInstance(t)
		if skip && req.kind == reqLock {
			e.skipped[lockKey{t.id, req.addr}]++
		}
		e.maybeMigrate(t)
		e.advance(t, 0, 1)
		if skip {
			return true
		}
	case stepTest:
		var ok bool
		if req.kind == reqLock {
			ok = e.tas(t, req.addr)
		} else {
			ok = e.spinRead(t, req.addr) >= req.value
		}
		if ok {
			return true
		}
		t.state, t.block = stBlocked, memsys.WordAlign(req.addr)
		req.step = stepWake
		return false
	}
	req.step = stepTest
	return false
}

// read performs a committed read of the word at a and returns its value.
func (e *Engine) read(t *threadCtx, a memsys.Addr, class trace.Class) uint64 {
	v := e.mem.Load(a)
	rep := e.deliver(t, a, trace.Read, class, 1)
	e.advance(t, e.accessCost(t, rep), 1)
	t.hash = (t.hash ^ (v + 0x9e37)) * fnvPrime
	return v
}

// spinRead performs a flag wait's sync read: a sub-instruction micro-op whose
// value stays out of the behaviour fingerprint, since the values spin reads
// see vary with the wakeup pattern without affecting program behaviour.
func (e *Engine) spinRead(t *threadCtx, a memsys.Addr) uint64 {
	v := e.mem.Load(a)
	rep := e.deliver(t, a, trace.Read, trace.Sync, 0)
	e.advance(t, e.accessCost(t, rep), 0)
	return v
}

// write performs a committed write of v to the word at a.
func (e *Engine) write(t *threadCtx, a memsys.Addr, v uint64, class trace.Class) {
	e.mem.Store(a, v)
	rep := e.deliver(t, a, trace.Write, class, 1)
	e.advance(t, e.accessCost(t, rep), 1)
	e.wake(t, a)
}

// tas is Lock's atomic test-and-set on a sync word: a sync read, plus a sync
// write of 1 when the word was clear. It is a sub-instruction micro-op that
// commits no instructions (Lock owns the accounting), and it reports whether
// it acquired the word.
func (e *Engine) tas(t *threadCtx, a memsys.Addr) bool {
	free := e.mem.Load(a) == 0
	rep := e.deliver(t, a, trace.Read, trace.Sync, 0)
	cost := e.accessCost(t, rep)
	if free {
		e.mem.Store(a, 1)
		rep = e.deliver(t, a, trace.Write, trace.Sync, 0)
		cost += e.accessCost(t, rep)
		e.wake(t, a)
	}
	e.advance(t, cost, 0)
	return free
}

// countSyncInstance advances the sync-instance counters for one lock-acquire
// or flag-wait and decides whether this is the injected (removed) instance.
func (e *Engine) countSyncInstance(t *threadCtx) bool {
	e.syncN++
	t.syncN++
	var skip bool
	if e.cfg.InjectThreadNth != 0 {
		skip = t.id == e.cfg.InjectThread && t.syncN == e.cfg.InjectThreadNth
	} else {
		skip = e.syncN == e.cfg.InjectSkip
	}
	if skip {
		e.injThread, e.injNth = t.id, t.syncN
	}
	return skip
}

// advance moves t's virtual time and instruction counter, applying jitter,
// and charges replay epoch quota for committed instructions. A request that
// commits more instructions than the current epoch has left (a Compute(n)
// straddling a recorded epoch boundary) can only mean the log disagrees with
// the program: the recorder ends epochs at clock changes, which never occur
// mid-request. Overrunning instructions must not silently migrate into the
// next epoch — that would replay them at the wrong logical time — so the
// overshoot is recorded as a sticky ErrReplayDivergence the run loop
// surfaces.
func (e *Engine) advance(t *threadCtx, cost uint64, instrs uint64) {
	if e.cfg.Jitter > 0 {
		cost += e.rng.Uint64N(e.cfg.Jitter + 1)
	}
	t.vtime += cost
	t.instr += instrs
	e.ops += instrs
	if e.feed != nil && instrs > 0 && e.epochIdx < len(e.epochs) {
		e.epochRun += uint32(instrs)
		if ep := e.epochs[e.epochIdx]; e.epochRun > ep.Instr && e.replayErr == nil {
			e.replayErr = fmt.Errorf("%w: thread %d ran %d instructions in an epoch of %d (log ends mid-request)",
				ErrReplayDivergence, t.id, e.epochRun, ep.Instr)
		}
	}
}

func (e *Engine) accessCost(t *threadCtx, rep trace.Report) uint64 {
	return e.cfg.Cost.AccessCost(t.vtime, t.proc, e.lastAccess, rep)
}

// deliver builds the Access event and feeds it to every observer, returning
// the primary observer's report (a zero Report when no primary is set).
func (e *Engine) deliver(t *threadCtx, addr memsys.Addr, kind trace.Kind, class trace.Class, instrs uint8) trace.Report {
	a := trace.Access{
		Seq:    e.seq,
		Thread: t.id,
		Proc:   t.proc,
		Addr:   memsys.WordAlign(addr),
		Kind:   kind,
		Class:  class,
		Instr:  t.instr,
		Instrs: instrs,
	}
	e.seq++
	e.lastAccess = a
	var primary trace.Report
	for i, o := range e.cfg.Observers {
		rep := o.OnAccess(a)
		if i == e.primIdx {
			primary = rep
		}
	}
	return primary
}

// unskip reports whether thread t's release of the lock at l is removed
// together with an injected acquire. It is decided when the release executes:
// the skipped counts for t are t's own state, and every acquire t posted
// before the release has executed by then.
func (e *Engine) unskip(t *threadCtx, l memsys.Addr) bool {
	k := lockKey{t.id, l}
	if e.skipped[k] == 0 {
		return false
	}
	e.skipped[k]--
	return true
}

// wake readies every thread blocked on addr; they resume no earlier than the
// writer's current virtual time.
func (e *Engine) wake(w *threadCtx, addr memsys.Addr) {
	addr = memsys.WordAlign(addr)
	for _, t := range e.threads {
		if t.state == stBlocked && t.block == addr {
			t.state = stReady
			if t.vtime < w.vtime {
				t.vtime = w.vtime
			}
		}
	}
}

// maybeMigrate exchanges t's processor with the thread currently occupying
// the next one, on the configured cadence, and notifies the observers
// (§2.7.4). Migration is modeled as a swap so that — as on a real machine —
// no two threads ever run on one processor concurrently: both ends of the
// exchange receive the migration clock bump that "synchronizes" them with
// the timestamps the other thread left behind.
func (e *Engine) maybeMigrate(t *threadCtx) {
	if e.cfg.MigrateEvery == 0 || e.syncN%e.cfg.MigrateEvery != 0 {
		return
	}
	target := (t.proc + 1) % e.cfg.Procs
	var other *threadCtx
	for _, u := range e.threads {
		if u != t && u.proc == target {
			other = u
			break
		}
	}
	if other != nil {
		other.proc = t.proc
	}
	t.proc = target
	for _, o := range e.cfg.Observers {
		o.Migrate(t.id, t.proc, t.instr)
		if other != nil {
			o.Migrate(other.id, other.proc, other.instr)
		}
	}
}
