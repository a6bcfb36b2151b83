package chaos

import (
	"errors"
	"fmt"
	"testing"
)

func TestParse(t *testing.T) {
	c, err := Parse("run-fail=0.2, journal-fail=0.5,crash-after=25,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if c.runFail != 0.2 || c.journalFail != 0.5 || c.crashAfter != 25 || c.seed != 7 {
		t.Fatalf("parsed %+v", c)
	}
	if !c.Active() {
		t.Fatal("armed chaos reports inactive")
	}

	if c, err := Parse(""); c != nil || err != nil {
		t.Fatalf("empty spec = %v, %v; want nil, nil", c, err)
	}
	if c, err := Parse("  "); c != nil || err != nil {
		t.Fatalf("blank spec = %v, %v; want nil, nil", c, err)
	}

	for _, bad := range []string{
		"run-fail", "run-fail=2", "run-fail=-0.1", "run-fail=x",
		"journal-fail=1.5", "crash-after=0", "crash-after=-3", "crash-after=x",
		"seed=-1", "seed=x", "frobnicate=1", "worker-restart-delay=1s",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted an invalid spec", bad)
		}
	}
}

// TestNilChaosInjectsNothing: the production path threads a nil *Chaos
// through unconditionally; every method must be a safe no-op.
func TestNilChaosInjectsNothing(t *testing.T) {
	var c *Chaos
	if err := c.RunFault("k", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.JournalFault(); err != nil {
		t.Fatal(err)
	}
	c.RunCompleted()
	if c.Active() {
		t.Fatal("nil chaos reports active")
	}
	if c.String() != "chaos: off" {
		t.Fatalf("String = %q", c.String())
	}
}

// TestRunFaultDeterministicAndBounded: victim selection is a pure function
// of (seed, key); every victim recovers within MaxRunFailures+1 attempts; the
// victim fraction tracks the configured probability.
func TestRunFaultDeterministicAndBounded(t *testing.T) {
	spec := "run-fail=0.3,seed=9"
	a, _ := Parse(spec)
	b, _ := Parse(spec)
	const keys = 1000
	victims := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("detect/%d", i)
		errA, errB := a.RunFault(key, 1), b.RunFault(key, 1)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("key %s: two chaoses with one spec disagree", key)
		}
		if errA == nil {
			continue
		}
		victims++
		if !errors.Is(errA, ErrInjected) {
			t.Fatalf("injected error %v does not wrap ErrInjected", errA)
		}
		var tr interface{ Transient() bool }
		if !errors.As(errA, &tr) || !tr.Transient() {
			t.Fatalf("injected run fault %v is not marked transient", errA)
		}
		// The victim must succeed within MaxRunFailures more attempts.
		recovered := false
		for attempt := 2; attempt <= MaxRunFailures+1; attempt++ {
			if a.RunFault(key, attempt) == nil {
				recovered = true
				break
			}
		}
		if !recovered {
			t.Fatalf("key %s: still failing after %d attempts", key, MaxRunFailures+1)
		}
	}
	if victims < keys/10 || victims > keys/2 {
		t.Fatalf("%d of %d keys were victims; want roughly 30%%", victims, keys)
	}
}

// TestJournalFaultRate: the append-failure stream is deterministic and
// roughly honors the probability.
func TestJournalFaultRate(t *testing.T) {
	a, _ := Parse("journal-fail=0.5,seed=3")
	b, _ := Parse("journal-fail=0.5,seed=3")
	failed := 0
	for i := 0; i < 400; i++ {
		errA, errB := a.JournalFault(), b.JournalFault()
		if (errA == nil) != (errB == nil) {
			t.Fatalf("append %d: decision streams diverge", i)
		}
		if errA != nil {
			failed++
			if !errors.Is(errA, ErrInjected) {
				t.Fatalf("journal fault %v does not wrap ErrInjected", errA)
			}
		}
	}
	if failed < 100 || failed > 300 {
		t.Fatalf("%d of 400 appends failed; want roughly half", failed)
	}
}

// TestCrashAfter: the K-th completion calls the exit hook exactly once, with
// the designated exit code.
func TestCrashAfter(t *testing.T) {
	c, _ := Parse("crash-after=3")
	exits := []int{}
	c.exit = func(code int) { exits = append(exits, code) }
	c.RunCompleted()
	c.RunCompleted()
	if len(exits) != 0 {
		t.Fatalf("crashed before the threshold: %v", exits)
	}
	c.RunCompleted()
	if len(exits) != 1 || exits[0] != CrashExitCode {
		t.Fatalf("exits = %v, want one exit with code %d", exits, CrashExitCode)
	}
}

func TestString(t *testing.T) {
	c, _ := Parse("run-fail=0.2,crash-after=5")
	want := "chaos: run-fail=0.2 crash-after=5 seed=1"
	if got := c.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

// TestParseWorkerKill: the fleet knob parses, reports active, and lands in
// String; bad values are rejected like every other knob.
func TestParseWorkerKill(t *testing.T) {
	c, err := Parse("worker-kill=0.25,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	if c.workerKill != 0.25 || c.seed != 9 {
		t.Fatalf("parsed %+v", c)
	}
	if !c.Active() {
		t.Fatal("armed worker-kill reports inactive")
	}
	if want := "chaos: worker-kill=0.25 seed=9"; c.String() != want {
		t.Fatalf("String = %q, want %q", c.String(), want)
	}
	var nilC *Chaos
	nilC.ShardCompleted() // must be a safe no-op

	for _, bad := range []string{
		"worker-kill=1.5", "worker-kill=-0.1", "worker-kill=x", "worker-kill",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted an invalid spec", bad)
		}
	}
}

// TestShardCompletedKillSchedule: the kill decision stream is a pure function
// of (seed, completion index) — two instances with the same spec kill after
// identical shard counts, a different seed picks a different schedule, and
// the observed kill rate tracks the probability.
func TestShardCompletedKillSchedule(t *testing.T) {
	schedule := func(spec string, n int) []int {
		c, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		var kills []int
		c.exit = func(int) { kills = append(kills, int(c.shardN)-1) }
		for i := 0; i < n; i++ {
			c.ShardCompleted()
		}
		return kills
	}
	a := schedule("worker-kill=0.3,seed=4", 200)
	b := schedule("worker-kill=0.3,seed=4", 200)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same spec, different kill schedules: %v vs %v", a, b)
	}
	if len(a) < 30 || len(a) > 90 {
		t.Fatalf("%d of 200 completions drew a kill at P=0.3; want roughly 60", len(a))
	}
	other := schedule("worker-kill=0.3,seed=5", 200)
	if fmt.Sprint(a) == fmt.Sprint(other) {
		t.Fatal("seed does not vary the kill schedule")
	}
	if none := schedule("run-fail=0.5", 200); len(none) != 0 {
		t.Fatalf("worker-kill unarmed but %d kills fired", len(none))
	}
}
