package sim

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"cord/internal/memsys"
	"cord/internal/record"
	"cord/internal/trace"
)

// TestReplaySchedulerFollowsEpochs: a hand-built epoch schedule forces a
// specific serialization of two otherwise-concurrent threads.
func TestReplaySchedulerFollowsEpochs(t *testing.T) {
	build := func() (Program, memsys.Addr) {
		al := memsys.NewAllocator()
		slot := al.Alloc(1).Word(0)
		return Program{
			Name:    "order",
			Threads: 2,
			Body: func(th int, env *Env) {
				env.Write(slot, uint64(th)+1) // last writer wins
			},
		}, slot
	}
	// Epoch schedule: thread 1's write first, then thread 0's — the final
	// value must be thread 0's.
	prog, slot := build()
	epochs := []record.Epoch{
		{Time: 1, Thread: 1, Instr: 1, Index: 0},
		{Time: 2, Thread: 0, Instr: 1, Index: 1},
	}
	res, err := New(Config{Seed: 1, ReplayEpochs: epochs}, prog).Run()
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Mem.Load(slot); v != 1 {
		t.Fatalf("slot = %d, want thread 0's value 1", v)
	}
	// And the opposite order.
	prog2, slot2 := build()
	epochs2 := []record.Epoch{
		{Time: 1, Thread: 0, Instr: 1, Index: 0},
		{Time: 2, Thread: 1, Instr: 1, Index: 1},
	}
	res2, err := New(Config{Seed: 1, ReplayEpochs: epochs2}, prog2).Run()
	if err != nil {
		t.Fatal(err)
	}
	if v := res2.Mem.Load(slot2); v != 2 {
		t.Fatalf("slot = %d, want thread 1's value 2", v)
	}
}

// TestReplayEqualTimeEpochsReorderable: when the designated thread is
// blocked, an equal-time epoch of another thread may run first.
func TestReplayEqualTimeEpochsReorderable(t *testing.T) {
	al := memsys.NewAllocator()
	flag := NewFlag(al)
	out := al.Alloc(2)
	prog := Program{
		Name:    "swap",
		Threads: 2,
		Body: func(th int, env *Env) {
			if th == 0 {
				flag.WaitAtLeast(env, 1) // blocks until thread 1 sets it
				env.Write(out.Word(0), 7)
			} else {
				flag.Set(env, 1)
				env.Write(out.Word(1), 9)
			}
		},
	}
	// A (deliberately awkward) schedule that names the blocked thread
	// first at time 1; the scheduler must fall back to thread 1's
	// equal-time epoch.
	epochs := []record.Epoch{
		{Time: 1, Thread: 0, Instr: 2, Index: 0}, // wait-enter + write
		{Time: 1, Thread: 1, Instr: 2, Index: 1}, // set + write
	}
	res, err := New(Config{Seed: 1, ReplayEpochs: epochs}, prog).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Hung {
		t.Fatal("replay hung instead of reordering equal-time epochs")
	}
	if res.Mem.Load(out.Word(0)) != 7 || res.Mem.Load(out.Word(1)) != 9 {
		t.Fatal("writes missing after replay")
	}
}

// TestReplayLeavesScheduleUntouched: the equal-time reorder swaps epochs
// and cuts the blocked epoch's quota, but only in the engine's own copy.
// The caller's ReplayEpochs slice is unchanged afterwards, and replaying it
// again gives an identical Result.
func TestReplayLeavesScheduleUntouched(t *testing.T) {
	build := func() Program {
		al := memsys.NewAllocator()
		flag := NewFlag(al)
		out := al.Alloc(2)
		return Program{
			Name:    "swap",
			Threads: 2,
			Body: func(th int, env *Env) {
				if th == 0 {
					flag.WaitAtLeast(env, 1)
					env.Write(out.Word(0), 7)
				} else {
					flag.Set(env, 1)
					env.Write(out.Word(1), 9)
				}
			},
		}
	}
	epochs := []record.Epoch{
		{Time: 1, Thread: 0, Instr: 2, Index: 0},
		{Time: 1, Thread: 1, Instr: 2, Index: 1},
	}
	orig := slices.Clone(epochs)
	var runs []Result
	for range 2 {
		res, err := New(Config{Seed: 1, ReplayEpochs: epochs}, build()).Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Hung {
			t.Fatal("replay hung instead of reordering equal-time epochs")
		}
		if !slices.Equal(epochs, orig) {
			t.Fatalf("replay wrote into the caller's schedule: %v, was %v", epochs, orig)
		}
		runs = append(runs, res)
	}
	a, b := runs[0], runs[1]
	if !b.Mem.Equal(a.Mem) {
		t.Fatal("second replay's final memory differs")
	}
	a.Mem, b.Mem = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("second replay differs:\n%+v\n%+v", b, a)
	}
}

// TestReplayDivergenceDetected: an impossible schedule (the blocked thread's
// wake-up lives at a later time) reports a hang rather than looping.
func TestReplayDivergenceDetected(t *testing.T) {
	al := memsys.NewAllocator()
	flag := NewFlag(al)
	prog := Program{
		Name:    "diverge",
		Threads: 2,
		Body: func(th int, env *Env) {
			if th == 0 {
				flag.WaitAtLeast(env, 1)
			} else {
				env.Compute(5)
				flag.Set(env, 1)
			}
		},
	}
	// Thread 0's epoch demands 1 instruction at time 1, but thread 1 (the
	// waker) is scheduled at time 5 with nothing at time 1 to swap with —
	// except its own epoch, which IS at a later time.
	epochs := []record.Epoch{
		{Time: 1, Thread: 0, Instr: 1, Index: 0},
		{Time: 5, Thread: 1, Instr: 6, Index: 1},
	}
	res, err := New(Config{Seed: 1, ReplayEpochs: epochs}, prog).Run()
	if err != nil {
		t.Fatal(err)
	}
	// The wait-enter commits (1 instr), the spin read then blocks forever
	// at epoch 1... the engine must not loop: either it recovers by
	// consuming epochs or flags the run.
	_ = res // reaching here without a test timeout is the assertion
}

// TestReplayQuotaOvershootDiverges: a log whose epoch boundary falls in the
// middle of a multi-instruction Compute must surface ErrReplayDivergence —
// before this check, the overrunning instructions silently migrated into the
// next epoch and replayed at the wrong logical time.
func TestReplayQuotaOvershootDiverges(t *testing.T) {
	prog := Program{
		Name:    "compute-heavy",
		Threads: 1,
		Body: func(th int, env *Env) {
			env.Compute(10)
			env.Compute(10)
		},
	}
	// The program commits its 20 instructions in two indivisible batches of
	// 10, but the (tampered) log claims an epoch ended after 5 of them.
	epochs := []record.Epoch{
		{Time: 1, Thread: 0, Instr: 5, Index: 0},
		{Time: 2, Thread: 0, Instr: 15, Index: 1},
	}
	_, err := New(Config{Seed: 1, ReplayEpochs: epochs}, prog).Run()
	if !errors.Is(err, ErrReplayDivergence) {
		t.Fatalf("err = %v, want ErrReplayDivergence", err)
	}

	// A log that honours request boundaries replays the same program cleanly.
	ok := []record.Epoch{
		{Time: 1, Thread: 0, Instr: 10, Index: 0},
		{Time: 2, Thread: 0, Instr: 10, Index: 1},
	}
	prog2 := prog
	if _, err := New(Config{Seed: 1, ReplayEpochs: ok}, prog2).Run(); err != nil {
		t.Fatalf("aligned log diverged: %v", err)
	}
}

// TestMaxOpsGuard: runaway programs abort with an error.
func TestMaxOpsGuard(t *testing.T) {
	al := memsys.NewAllocator()
	w := al.Alloc(1).Word(0)
	prog := Program{
		Name:    "spin",
		Threads: 1,
		Body: func(th int, env *Env) {
			for {
				env.Write(w, env.Read(w)+1)
			}
		},
	}
	_, err := New(Config{Seed: 1, MaxOps: 1000}, prog).Run()
	if err == nil {
		t.Fatal("runaway program did not abort")
	}
}

// TestTASAtomicity: concurrent TAS on one word admits exactly one winner per
// release cycle.
func TestTASAtomicity(t *testing.T) {
	al := memsys.NewAllocator()
	word := al.AllocPadded(1).Word(0)
	winners := al.Alloc(4)
	prog := Program{
		Name:    "tas",
		Threads: 4,
		Body: func(th int, env *Env) {
			if env.TAS(word, 1) == 0 {
				env.Write(winners.Word(th), 1)
			}
		},
	}
	res, err := New(Config{Seed: 3, Jitter: 9}, prog).Run()
	if err != nil {
		t.Fatal(err)
	}
	total := uint64(0)
	for i := 0; i < 4; i++ {
		total += res.Mem.Load(winners.Word(i))
	}
	if total != 1 {
		t.Fatalf("%d TAS winners, want exactly 1", total)
	}
}

// TestCostModelPlumbing: a custom cost model's charges appear in the cycle
// count, and the primary observer's report reaches it.
func TestCostModelPlumbing(t *testing.T) {
	al := memsys.NewAllocator()
	w := al.Alloc(1).Word(0)
	prog := Program{
		Name:    "cost",
		Threads: 1,
		Body: func(th int, env *Env) {
			env.Write(w, 1)
			env.Write(w, 2)
			env.Compute(10)
		},
	}
	cm := &countingCost{}
	res, err := New(Config{Seed: 1, Cost: cm}, prog).Run()
	if err != nil {
		t.Fatal(err)
	}
	if cm.accesses != 2 || cm.compute != 10 {
		t.Fatalf("cost model saw %d accesses, %d compute", cm.accesses, cm.compute)
	}
	if res.Cycles != 2*100+10 {
		t.Fatalf("cycles = %d, want 210", res.Cycles)
	}
}

type countingCost struct {
	accesses int
	compute  uint64
}

func (c *countingCost) AccessCost(now uint64, proc int, a trace.Access, rep trace.Report) uint64 {
	c.accesses++
	return 100
}
func (c *countingCost) ComputeCost(proc int, n uint64) uint64 {
	c.compute += n
	return n
}
