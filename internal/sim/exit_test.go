package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"cord/internal/memsys"
	"cord/internal/record"
	"cord/internal/trace"
)

// TestRunExitPaths: every way a run can end returns its verdict and leaves no
// thread coroutine behind, whether the threads still parked at that point are
// blocked, runnable, or never reached their first Env call. The one-thread
// cases end while their thread runs ahead, its requests served on its own
// coroutine with no trip through Run. The write-only bodies never reach a
// call that needs an answer: they park only because their queue of posted
// requests fills.
func TestRunExitPaths(t *testing.T) {
	al := memsys.NewAllocator()
	never := NewFlag(al) // no thread ever sets it
	barrier := NewBarrier(al, 2)
	w := al.Alloc(1).Word(0)

	prog := func(name string, threads int, body func(th int, env *Env)) Program {
		return Program{Name: name, Threads: threads, Body: body}
	}
	cancel := make(chan struct{})
	cancelAhead := make(chan struct{})
	cancelPosted := make(chan struct{})
	const cancelAt = 100
	var delivered, deliveredPosted int
	errObserver := errors.New("observer boom")
	errEpoch := errors.New("epoch boom")
	observe := func(fn func(trace.Access)) []trace.Observer {
		return []trace.Observer{&trace.FuncObserver{Label: "tap", Fn: fn}}
	}
	solo := func(name string) Program {
		return prog(name, 1, func(th int, env *Env) {
			for {
				env.Write(w, env.Read(w)+1)
			}
		})
	}
	writer := func(name string, threads int) Program {
		return prog(name, threads, func(th int, env *Env) {
			for i := uint64(0); ; i++ {
				env.Write(w, i)
			}
		})
	}

	cases := []struct {
		name      string
		prog      Program
		cfg       Config
		wantErr   error  // matched with errors.Is
		wantMsg   string // substring of the error
		wantHung  bool
		wantOps   uint64
		wantPanic error // the exact value Run must panic with
		check     func(t *testing.T)
	}{
		{
			name: "panic before first Env call",
			prog: prog("early-panic", 3, func(th int, env *Env) {
				if th == 1 {
					panic("boom")
				}
				env.Read(w)
			}),
			wantMsg: "sim: thread 1 panicked: boom",
		},
		{
			name: "panic mid-run while others parked",
			prog: prog("late-panic", 3, func(th int, env *Env) {
				if th != 0 {
					never.WaitAtLeast(env, 1)
					return
				}
				env.Compute(50)
				env.Write(w, 1)
				panic("late")
			}),
			wantMsg: "sim: thread 0 panicked: late",
		},
		{
			name: "panic right after posting writes",
			prog: prog("posted-panic", 3, func(th int, env *Env) {
				if th != 0 {
					never.WaitAtLeast(env, 1)
					return
				}
				env.Read(w)
				env.Write(w, 1)
				env.Compute(5)
				env.Write(w, 2)
				panic("posted")
			}),
			wantMsg: "sim: thread 0 panicked: posted",
		},
		{
			name: "Body returns without any Env call",
			prog: prog("no-env", 3, func(th int, env *Env) {
				if th == 2 {
					env.Compute(3)
				}
			}),
			wantOps: 3,
		},
		{
			name: "op budget exceeded",
			prog: prog("runaway", 2, func(th int, env *Env) {
				for {
					env.Write(w, env.Read(w)+1)
				}
			}),
			cfg:     Config{MaxOps: 1000},
			wantMsg: "exceeded op budget 1000",
		},
		{
			// Removing thread 0's first barrier flag wait lets its second
			// arrival count toward the round thread 1 is still in: the
			// rounds fall out of step and a waiter is left with no one to
			// release it.
			name: "injected deadlock",
			prog: prog("deadlock", 2, func(th int, env *Env) {
				barrier.Wait(env)
				barrier.Wait(env)
			}),
			cfg:      Config{InjectThread: 0, InjectThreadNth: 2},
			wantHung: true,
			wantOps:  22,
		},
		{
			name: "replay log overruns an epoch",
			prog: prog("overrun", 2, func(th int, env *Env) {
				env.Compute(10)
				env.Compute(10)
			}),
			cfg: Config{ReplayEpochs: []record.Epoch{
				{Time: 1, Thread: 0, Instr: 5, Index: 0},
				{Time: 2, Thread: 1, Instr: 20, Index: 1},
				{Time: 3, Thread: 0, Instr: 15, Index: 2},
			}},
			wantErr: ErrReplayDivergence,
		},
		{
			name: "open feed canceled while the engine waits",
			prog: prog("feed-wait", 2, func(th int, env *Env) { env.Read(w) }),
			cfg: Config{
				ReplayFeed: NewReplayFeed(), // never appended to, never closed
				Cancel:     cancel,
				OnEpoch: func(idx int) {
					if idx == 0 {
						go close(cancel)
					}
				},
			},
			wantErr: ErrCanceled,
		},
		{
			name:    "op budget exceeded by write-only bodies",
			prog:    writer("write-runaway", 2),
			cfg:     Config{MaxOps: 1000},
			wantMsg: "sim: write-runaway exceeded op budget 1000",
		},
		{
			name:    "op budget exceeded by a write-only body running ahead",
			prog:    writer("write-solo", 1),
			cfg:     Config{MaxOps: 1000},
			wantMsg: "sim: write-solo exceeded op budget 1000",
		},
		{
			name: "observer cancels a write-only body with a full queue",
			prog: writer("write-cancel", 1),
			cfg: Config{
				Cancel: cancelPosted,
				Observers: observe(func(a trace.Access) {
					if deliveredPosted++; deliveredPosted == cancelAt {
						close(cancelPosted)
					}
				}),
			},
			wantErr: ErrCanceled,
			check: func(t *testing.T) {
				if deliveredPosted > cancelAt+1 {
					t.Fatalf("%d accesses delivered after Cancel closed at access %d", deliveredPosted-cancelAt, cancelAt)
				}
			},
		},
		{
			name:    "op budget exceeded while running ahead",
			prog:    solo("solo"),
			cfg:     Config{MaxOps: 1000},
			wantMsg: "sim: solo exceeded op budget 1000",
		},
		{
			name: "observer cancels while running ahead",
			prog: solo("solo-cancel"),
			cfg: Config{
				Cancel: cancelAhead,
				Observers: observe(func(a trace.Access) {
					if delivered++; delivered == cancelAt {
						close(cancelAhead)
					}
				}),
			},
			wantErr: ErrCanceled,
			check: func(t *testing.T) {
				if delivered > cancelAt+1 {
					t.Fatalf("%d accesses delivered after Cancel closed at access %d", delivered-cancelAt, cancelAt)
				}
			},
		},
		{
			name: "observer panics while running ahead",
			prog: solo("solo-panic"),
			cfg: Config{Observers: observe(func(a trace.Access) {
				if a.Seq == 50 {
					panic(errObserver)
				}
			})},
			wantPanic: errObserver,
		},
		{
			name: "OnEpoch panics while replay runs ahead",
			prog: prog("epoch-panic", 1, func(th int, env *Env) {
				for i := 0; i < 10; i++ {
					env.Compute(1)
				}
			}),
			cfg: Config{
				ReplayEpochs: []record.Epoch{
					{Time: 1, Thread: 0, Instr: 5, Index: 0},
					{Time: 2, Thread: 0, Instr: 5, Index: 1},
				},
				OnEpoch: func(idx int) {
					if idx == 1 {
						panic(errEpoch)
					}
				},
			},
			wantPanic: errEpoch,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			tc.cfg.Seed = 1
			var panicked any
			res, err := func() (Result, error) {
				defer func() { panicked = recover() }()
				return New(tc.cfg, tc.prog).Run()
			}()
			if panicked != any(tc.wantPanic) {
				t.Fatalf("Run panicked with %v, want %v", panicked, tc.wantPanic)
			}
			switch {
			case tc.wantPanic != nil:
			case tc.wantErr != nil:
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("Run returned %v, want %v", err, tc.wantErr)
				}
			case tc.wantMsg != "":
				if err == nil || !strings.Contains(err.Error(), tc.wantMsg) {
					t.Fatalf("Run returned %v, want an error containing %q", err, tc.wantMsg)
				}
			default:
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if res.Hung != tc.wantHung || res.Ops != tc.wantOps {
					t.Fatalf("hung=%v ops=%d, want hung=%v ops=%d", res.Hung, res.Ops, tc.wantHung, tc.wantOps)
				}
			}
			if tc.check != nil {
				tc.check(t)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
