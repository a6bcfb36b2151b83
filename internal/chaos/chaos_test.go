package chaos

import (
	"fmt"
	"testing"
)

func TestParse(t *testing.T) {
	c, err := Parse("worker-kill=0.5, crash-after=25,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if c.workerKill != 0.5 || c.crashAfter != 25 || c.seed != 7 {
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
		"crash-after=0", "crash-after=-3", "crash-after=x",
		"seed=-1", "seed=x", "frobnicate=1", "worker-restart-delay=1s",
		// Knobs that no longer exist are refused, not ignored, so a stale
		// script fails loudly instead of running with no faults.
		"run-fail=0.2", "journal-fail=0.5",
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
	c.RunCompleted()
	c.ShardCompleted()
	if c.Active() {
		t.Fatal("nil chaos reports active")
	}
	if c.String() != "chaos: off" {
		t.Fatalf("String = %q", c.String())
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
	c, _ := Parse("worker-kill=0.2,crash-after=5")
	want := "chaos: crash-after=5 worker-kill=0.2 seed=1"
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
	if none := schedule("crash-after=5", 200); len(none) != 0 {
		t.Fatalf("worker-kill unarmed but %d kills fired", len(none))
	}
}
