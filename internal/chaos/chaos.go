// Package chaos is the fault injector behind the campaign robustness tests:
// a deliberately hostile environment that fails runs transiently, fails
// checkpoint-journal writes, and crashes the whole process mid-campaign —
// everything a production fleet does to a long evaluation, on demand and
// reproducibly. The experiment runner consults an optional *Chaos; nil means
// no injected faults, which is the production default.
//
// Chaos is configured from one specification string, usually the CORD_CHAOS
// environment variable:
//
//	CORD_CHAOS="run-fail=0.2,journal-fail=0.5,crash-after=25,seed=7"
//
// Knobs (all optional, comma-separated key=value):
//
//	run-fail=P      fail a fraction P of runs with a transient error. The
//	                decision is a deterministic hash of (seed, run key), so
//	                the same spec chooses the same victims; a victim fails at
//	                most MaxRunFailures consecutive attempts and then
//	                succeeds, so any retry policy allowing MaxRunFailures+1
//	                attempts is guaranteed to complete.
//	journal-fail=P  fail a fraction P of journal appends (before any byte is
//	                written, so the journal file stays intact).
//	crash-after=K   after K successful run completions in this process, print
//	                a marker to stderr and os.Exit(CrashExitCode) without any
//	                cleanup — the in-process stand-in for kill -9.
//	worker-kill=P   in a cordd worker, die (marker to stderr, then
//	                os.Exit(CrashExitCode) with no cleanup) after a fraction P
//	                of completed campaign shards, before the response is
//	                written — the coordinator sees a dropped connection, not a
//	                clean error. The decision stream is deterministic in
//	                (seed, shard-completion index), so a pinned seed replays
//	                the same kill schedule. Chaos never restarts a worker;
//	                that is the supervisor's job (scripts/fleet-chaos-smoke.sh).
//	seed=N          vary which runs are chosen (default 1).
package chaos

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"strings"
	"sync"
)

// EnvVar is the environment variable FromEnv reads.
const EnvVar = "CORD_CHAOS"

// CrashExitCode is the exit status of a crash-after termination. It is
// deliberately distinct from every ordinary cord exit code (0–3) so harnesses
// can tell an injected crash from a real failure.
const CrashExitCode = 42

// MaxRunFailures bounds how many consecutive attempts of one run a run-fail
// injection may fail. Keeping it below the runner's retry budget (default 3
// attempts) makes chaotic campaigns terminate by construction: transient
// means transient.
const MaxRunFailures = 2

// ErrInjected is the root of every chaos-injected failure, so tests and
// logs can tell injected faults from real ones.
var ErrInjected = errors.New("chaos: injected fault")

// runError is a chaos-injected transient run failure. It implements the
// Transient() contract the experiment runner's retry classifier looks for.
type runError struct{ msg string }

func (e *runError) Error() string        { return e.msg }
func (e *runError) Transient() bool      { return true }
func (e *runError) Unwrap() error        { return ErrInjected }
func (e *runError) Is(target error) bool { return target == ErrInjected }

// Chaos injects faults according to one parsed specification. The zero value
// injects nothing; methods on a nil *Chaos are safe and inject nothing, so
// callers thread it through unconditionally.
type Chaos struct {
	runFail     float64
	journalFail float64
	crashAfter  int
	workerKill  float64
	seed        uint64

	mu        sync.Mutex
	attempts  map[string]int // run key -> failed attempts so far
	completed int
	journalN  uint64 // journal-append decision counter
	shardN    uint64 // worker-kill decision counter (completed shards)

	// exit is os.Exit, a field so tests can observe crashes without dying.
	exit func(int)
}

// Parse builds a Chaos from a specification string; an empty string yields
// nil (no chaos).
func Parse(spec string) (*Chaos, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	c := &Chaos{seed: 1, crashAfter: -1, attempts: make(map[string]int), exit: os.Exit}
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("chaos: %q is not key=value", part)
		}
		switch key {
		case "run-fail", "journal-fail", "worker-kill":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("chaos: %s must be a probability in [0,1], got %q", key, val)
			}
			switch key {
			case "run-fail":
				c.runFail = p
			case "journal-fail":
				c.journalFail = p
			case "worker-kill":
				c.workerKill = p
			}
		case "crash-after":
			k, err := strconv.Atoi(val)
			if err != nil || k < 1 {
				return nil, fmt.Errorf("chaos: crash-after must be a positive integer, got %q", val)
			}
			c.crashAfter = k
		case "seed":
			s, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: seed must be an unsigned integer, got %q", val)
			}
			c.seed = s
		default:
			return nil, fmt.Errorf("chaos: unknown knob %q (want run-fail, journal-fail, crash-after, worker-kill, seed)", key)
		}
	}
	return c, nil
}

// FromEnv parses the CORD_CHAOS environment variable; unset or empty yields
// nil (no chaos).
func FromEnv() (*Chaos, error) {
	return Parse(os.Getenv(EnvVar))
}

// draw is a deterministic uniform draw in [0,1) from (seed, label, n).
//
// The FNV state is passed through a 64-bit avalanche finalizer before use:
// FNV-1a's final byte only reaches the high bits through one multiply, so for
// sequential counters (journal appends, shard completions) the last decimal
// digit of n barely moves the draw — ten consecutive n values land within
// 1e-7 of each other and a probability knob degrades to deciding in blocks of
// ten. The finalizer restores per-increment independence while keeping the
// draw a pure function of (seed, label, n).
func (c *Chaos) draw(label string, n uint64) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", c.seed, label, n)
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return float64(x>>11) / float64(1<<53)
}

// RunFault decides whether the attempt-th try (1-based) of the run named by
// key fails, and returns the transient error to fail it with (nil: run
// normally). Victim selection hashes (seed, key); how many attempts a victim
// loses also derives from the hash, capped at MaxRunFailures, so chaotic
// campaigns always complete under a retry budget of MaxRunFailures+1.
func (c *Chaos) RunFault(key string, attempt int) error {
	if c == nil || c.runFail <= 0 {
		return nil
	}
	if c.draw("run", hashKey(key)) >= c.runFail {
		return nil // not a victim
	}
	failures := 1
	if c.draw("run-depth", hashKey(key)) < c.runFail {
		failures = MaxRunFailures
	}
	c.mu.Lock()
	failed := c.attempts[key]
	inject := failed < failures && attempt <= failures
	if inject {
		c.attempts[key] = failed + 1
	}
	c.mu.Unlock()
	if !inject {
		return nil
	}
	return &runError{msg: fmt.Sprintf("chaos: injected transient failure (run %s, attempt %d)", key, attempt)}
}

// JournalFault decides whether one journal append fails; the decision stream
// is deterministic in append order. The returned error wraps ErrInjected.
func (c *Chaos) JournalFault() error {
	if c == nil || c.journalFail <= 0 {
		return nil
	}
	c.mu.Lock()
	n := c.journalN
	c.journalN++
	c.mu.Unlock()
	if c.draw("journal", n) >= c.journalFail {
		return nil
	}
	return fmt.Errorf("%w: journal write refused (append %d)", ErrInjected, n)
}

// RunCompleted records one successful run completion and, when crash-after is
// armed and the threshold is reached, terminates the process abruptly —
// no flushes, no deferred functions — exactly like a kill.
func (c *Chaos) RunCompleted() {
	if c == nil || c.crashAfter < 1 {
		return
	}
	c.mu.Lock()
	c.completed++
	crash := c.completed >= c.crashAfter
	exit := c.exit
	c.mu.Unlock()
	if crash {
		fmt.Fprintf(os.Stderr, "chaos: crashing after %d completions\n", c.crashAfter)
		exit(CrashExitCode)
	}
}

// ShardCompleted records one completed campaign shard in a cordd worker and,
// when worker-kill is armed and this completion draws a kill, terminates the
// process abruptly — marker to stderr, os.Exit(CrashExitCode), no cleanup, no
// response written. The draw is deterministic in (seed, completion index):
// the same spec kills after the same shards, so a chaos harness with a pinned
// seed replays an identical schedule. The coordinator observes a dropped
// connection mid-request, exactly what a kill -9 produces, and must recover
// through §6/§7 idempotency: retry, declare the worker dead, requeue.
func (c *Chaos) ShardCompleted() {
	if c == nil || c.workerKill <= 0 {
		return
	}
	c.mu.Lock()
	n := c.shardN
	c.shardN++
	kill := c.draw("worker-kill", n) < c.workerKill
	exit := c.exit
	c.mu.Unlock()
	if kill {
		fmt.Fprintf(os.Stderr, "chaos: killing worker after shard completion %d\n", n)
		exit(CrashExitCode)
	}
}

// Active reports whether any fault is armed (false for nil).
func (c *Chaos) Active() bool {
	return c != nil && (c.runFail > 0 || c.journalFail > 0 || c.crashAfter > 0 || c.workerKill > 0)
}

// String summarizes the armed faults for startup logging.
func (c *Chaos) String() string {
	if c == nil {
		return "chaos: off"
	}
	parts := []string{}
	if c.runFail > 0 {
		parts = append(parts, fmt.Sprintf("run-fail=%g", c.runFail))
	}
	if c.journalFail > 0 {
		parts = append(parts, fmt.Sprintf("journal-fail=%g", c.journalFail))
	}
	if c.crashAfter > 0 {
		parts = append(parts, fmt.Sprintf("crash-after=%d", c.crashAfter))
	}
	if c.workerKill > 0 {
		parts = append(parts, fmt.Sprintf("worker-kill=%g", c.workerKill))
	}
	if len(parts) == 0 {
		return "chaos: off"
	}
	return "chaos: " + strings.Join(parts, " ") + fmt.Sprintf(" seed=%d", c.seed)
}

func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}
