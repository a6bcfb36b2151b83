// Package chaos is the fault injector behind the campaign robustness tests:
// it kills a campaign process, or a cordd worker of a fleet, without any
// cleanup — what a production fleet does to a long evaluation, on demand and
// reproducibly. The experiment runner and the cordd campaign handler consult
// an optional *Chaos; nil means no injected faults, which is the production
// default.
//
// Chaos is configured from one specification string, usually the CORD_CHAOS
// environment variable:
//
//	CORD_CHAOS="crash-after=25,seed=7"
//
// Knobs (all optional, comma-separated key=value):
//
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
//	seed=N          vary which shard completions worker-kill picks (default 1).
package chaos

import (
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

// Chaos injects faults according to one parsed specification. The zero value
// injects nothing; methods on a nil *Chaos are safe and inject nothing, so
// callers thread it through unconditionally.
type Chaos struct {
	crashAfter int
	workerKill float64
	seed       uint64

	mu        sync.Mutex
	completed int
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
	c := &Chaos{seed: 1, crashAfter: -1, exit: os.Exit}
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("chaos: %q is not key=value", part)
		}
		switch key {
		case "worker-kill":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("chaos: worker-kill must be a probability in [0,1], got %q", val)
			}
			c.workerKill = p
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
			return nil, fmt.Errorf("chaos: unknown knob %q (want crash-after, worker-kill, seed)", key)
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
// a sequential counter (shard completions) the last decimal digit of n barely
// moves the draw — ten consecutive n values land within 1e-7 of each other
// and a probability knob degrades to deciding in blocks of ten. The finalizer
// restores per-increment independence while keeping the draw a pure function
// of (seed, label, n).
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
	return c != nil && (c.crashAfter > 0 || c.workerKill > 0)
}

// String summarizes the armed faults for startup logging.
func (c *Chaos) String() string {
	if c == nil {
		return "chaos: off"
	}
	parts := []string{}
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
