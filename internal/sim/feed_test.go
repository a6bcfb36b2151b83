package sim

import (
	"errors"
	"testing"
	"time"

	"cord/internal/memsys"
	"cord/internal/record"
)

// feedProg is a two-phase program with real blocking: thread 1 sets a flag
// thread 0 waits on, then both accumulate into disjoint words.
func feedProg() (Program, *memsys.Allocator) {
	al := memsys.NewAllocator()
	flag := NewFlag(al)
	out := al.Alloc(2)
	return Program{
		Name:    "feedprog",
		Threads: 2,
		Body: func(th int, env *Env) {
			if th == 0 {
				flag.WaitAtLeast(env, 1)
				for i := 0; i < 8; i++ {
					env.Write(out.Word(0), uint64(i))
				}
			} else {
				for i := 0; i < 4; i++ {
					env.Write(out.Word(1), uint64(i))
				}
				flag.Set(env, 1)
				for i := 0; i < 4; i++ {
					env.Write(out.Word(1), uint64(10+i))
				}
			}
		},
	}, al
}

// recordSchedule records feedProg under a CORD-style order observer by
// running it in normal mode with a recording epoch builder: rather than pull
// in internal/core (an import cycle for this package's tests), derive the
// epoch schedule from the committed ThreadInstr split — one epoch per thread
// per phase is enough to drive the replay scheduler through its blocking
// path deterministically.
func recordSchedule(t *testing.T) []record.Epoch {
	t.Helper()
	// Thread 1 must run first (it sets the flag), then thread 0.
	// Instruction counts come from one normal-mode run.
	prog, _ := feedProg()
	res, err := New(Config{Seed: 42, Jitter: 3}, prog).Run()
	if err != nil {
		t.Fatal(err)
	}
	// Split each thread's committed instructions into a few epochs with
	// strictly interleaved times; thread 1's first epoch covers through the
	// flag set so thread 0 can wake.
	t0, t1 := res.ThreadInstr[0], res.ThreadInstr[1]
	if t0 == 0 || t1 < 6 {
		t.Fatalf("unexpected instruction split: %v", res.ThreadInstr)
	}
	return []record.Epoch{
		{Time: 1, Thread: 1, Instr: uint32(t1 - 4), Index: 0},
		{Time: 2, Thread: 0, Instr: uint32(t0 / 2), Index: 1},
		{Time: 2, Thread: 1, Instr: 4, Index: 2},
		{Time: 3, Thread: 0, Instr: uint32(t0 - t0/2), Index: 3},
	}
}

// TestReplayFeedMatchesBatch: driving the same epoch schedule through a
// ReplayFeed — appended one epoch at a time from another goroutine, with the
// engine repeatedly catching up and blocking — produces a Result identical
// to ReplayEpochs batch replay.
func TestReplayFeedMatchesBatch(t *testing.T) {
	epochs := recordSchedule(t)

	progA, _ := feedProg()
	want, err := New(Config{Seed: 42, ReplayEpochs: epochs}, progA).Run()
	if err != nil {
		t.Fatalf("batch replay: %v", err)
	}

	progB, _ := feedProg()
	feed := NewReplayFeed()
	go func() {
		for _, ep := range epochs {
			feed.Append(ep)
			time.Sleep(time.Millisecond) // force the engine to block between epochs
		}
		feed.CloseFeed()
	}()
	got, err := New(Config{Seed: 42, ReplayFeed: feed}, progB).Run()
	if err != nil {
		t.Fatalf("feed replay: %v", err)
	}

	if got.Ops != want.Ops || got.Cycles != want.Cycles || got.Accesses != want.Accesses {
		t.Fatalf("feed result differs: got %+v want %+v", got, want)
	}
	for i := range want.ReadHash {
		if got.ReadHash[i] != want.ReadHash[i] {
			t.Fatalf("thread %d read hash differs", i)
		}
	}
	if !got.Mem.Equal(want.Mem) {
		t.Fatal("final memory images differ")
	}
}

// TestReplayFeedOnEpoch: the OnEpoch callback fires once per index in order,
// starting at 0 and ending one past the last epoch.
func TestReplayFeedOnEpoch(t *testing.T) {
	epochs := recordSchedule(t)
	prog, _ := feedProg()
	feed := NewReplayFeed()
	feed.Append(epochs...)
	feed.CloseFeed()

	var calls []int
	_, err := New(Config{
		Seed:       42,
		ReplayFeed: feed,
		OnEpoch:    func(idx int) { calls = append(calls, idx) },
	}, prog).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != len(epochs)+1 {
		t.Fatalf("OnEpoch called %d times, want %d (calls: %v)", len(calls), len(epochs)+1, calls)
	}
	for i, idx := range calls {
		if idx != i {
			t.Fatalf("OnEpoch call %d has index %d (calls: %v)", i, idx, calls)
		}
	}
}

// TestReplayFeedCancelWhileWaiting: an engine blocked on an open, empty feed
// honors Cancel promptly and returns ErrCanceled — the session-abort path of
// the streaming service.
func TestReplayFeedCancelWhileWaiting(t *testing.T) {
	prog, _ := feedProg()
	feed := NewReplayFeed()
	cancel := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := New(Config{Seed: 42, ReplayFeed: feed, Cancel: cancel}, prog).Run()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the engine reach the feed wait
	close(cancel)
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("Run returned %v, want ErrCanceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("engine did not honor Cancel while waiting on the feed")
	}
}

// TestReplayFeedEqualTimeArrivesLate: the equal-time reordering path must
// wait for a concurrent epoch that has not been appended yet instead of
// declaring the replay hung. Thread 0 blocks immediately; its designated
// epoch cannot run until thread 1's equal-time epoch arrives.
func TestReplayFeedEqualTimeArrivesLate(t *testing.T) {
	prog, _ := feedProg()
	res, err := New(Config{Seed: 42, Jitter: 3}, prog).Run()
	if err != nil {
		t.Fatal(err)
	}
	t0, t1 := uint32(res.ThreadInstr[0]), uint32(res.ThreadInstr[1])
	// Equal-time pair up front: the schedule designates blocked thread 0
	// first, so progress requires reordering with thread 1's epoch.
	epochs := []record.Epoch{
		{Time: 1, Thread: 0, Instr: t0, Index: 0},
		{Time: 1, Thread: 1, Instr: t1, Index: 1},
	}
	feed := NewReplayFeed()
	feed.Append(epochs[0])
	go func() {
		time.Sleep(20 * time.Millisecond)
		feed.Append(epochs[1])
		feed.CloseFeed()
	}()
	got, err := New(Config{Seed: 42, ReplayFeed: feed}, prog).Run()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if got.Hung {
		t.Fatal("replay hung instead of waiting for the late equal-time epoch")
	}
	if got.Ops != res.Ops {
		t.Fatalf("replay committed %d ops, want %d", got.Ops, res.Ops)
	}
}

// TestReplayFeedRetentionBounded: neither the feed nor the engine keeps the
// epochs the replay has already run. The producer appends the next batch
// from OnEpoch whenever the engine has run every epoch so far, so 64 Ki
// epochs pass through while the retained ones stay within two batches.
func TestReplayFeedRetentionBounded(t *testing.T) {
	const perThread, batch = 1 << 15, 256
	prog := Program{
		Name:    "steps",
		Threads: 2,
		Body: func(th int, env *Env) {
			for i := 0; i < perThread; i++ {
				env.Compute(1)
			}
		},
	}
	epochs := make([]record.Epoch, 2*perThread)
	for i := range epochs {
		epochs[i] = record.Epoch{Time: uint64(i), Thread: i % 2, Instr: 1, Index: i}
	}
	feed := NewReplayFeed()
	var eng *Engine
	sent, peak, last := 0, 0, -1
	onEpoch := func(idx int) {
		if idx != last+1 {
			t.Errorf("OnEpoch(%d) after OnEpoch(%d): indices are not absolute", idx, last)
		}
		last = idx
		feed.mu.Lock()
		held := cap(feed.epochs)
		feed.mu.Unlock()
		peak = max(peak, held+cap(eng.epochs))
		if idx == sent {
			if sent == len(epochs) {
				feed.CloseFeed()
				return
			}
			feed.Append(epochs[sent : sent+batch]...)
			sent += batch
		}
	}
	eng = New(Config{Seed: 1, ReplayFeed: feed, OnEpoch: onEpoch}, prog)
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Hung || res.Ops != uint64(len(epochs)) || last != len(epochs) {
		t.Fatalf("replay ran %d ops to epoch %d (hung %v), want %d", res.Ops, last, res.Hung, len(epochs))
	}
	if peak > 2*batch {
		t.Fatalf("feed and engine retained up to %d epochs of %d streamed; want at most %d", peak, len(epochs), 2*batch)
	}
}

// TestFeedAppendAfterClosePanics pins the misuse guard.
func TestFeedAppendAfterClosePanics(t *testing.T) {
	feed := NewReplayFeed()
	feed.CloseFeed()
	defer func() {
		if recover() == nil {
			t.Fatal("Append after CloseFeed did not panic")
		}
	}()
	feed.Append(record.Epoch{})
}
