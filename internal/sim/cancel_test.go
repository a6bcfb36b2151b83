package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"cord/internal/memsys"
	"cord/internal/record"
)

// spinProg is a program that would run for a very long time: each thread
// performs millions of reads. Only cancellation (or the op budget) stops it.
func spinProg(threads, iters int) Program {
	return Program{
		Name:    "spin",
		Threads: threads,
		Body: func(t int, env *Env) {
			a := memsys.Addr(uint64(t) * memsys.LineBytes)
			for i := 0; i < iters; i++ {
				env.Read(a)
			}
		},
	}
}

// TestCancelStopsRun: closing Config.Cancel mid-run makes Run return
// ErrCanceled promptly instead of executing the program to completion.
func TestCancelStopsRun(t *testing.T) {
	cancel := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := New(Config{Seed: 1, Cancel: cancel}, spinProg(4, 10_000_000)).Run()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	close(cancel)
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("Run returned %v, want ErrCanceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not stop after cancellation")
	}
}

// TestCancelBeforeRun: a pre-canceled run aborts without executing anything.
func TestCancelBeforeRun(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	_, err := New(Config{Seed: 1, Cancel: cancel}, spinProg(2, 10_000_000)).Run()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("Run returned %v, want ErrCanceled", err)
	}
}

// TestCancelLeaksNoGoroutines: after a canceled run every thread coroutine
// must have exited — abortAll unwinds parked threads even on the cancel path.
func TestCancelLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		cancel := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			_, _ = New(Config{Seed: uint64(i + 1), Cancel: cancel}, spinProg(4, 10_000_000)).Run()
		}()
		time.Sleep(time.Millisecond)
		close(cancel)
		<-done
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after canceled runs", before, runtime.NumGoroutine())
}

// spinEpochs is a log-driven schedule for spinProg: one epoch per thread,
// each claiming the thread's full instruction count, serialized in thread
// order — enough work that a replay is mid-epoch whenever cancellation hits.
func spinEpochs(threads, iters int) []record.Epoch {
	epochs := make([]record.Epoch, threads)
	for t := range epochs {
		epochs[t] = record.Epoch{Time: uint64(t + 1), Thread: t, Instr: uint32(iters), Index: t}
	}
	return epochs
}

// TestCancelDuringReplay: cancelling a replay mid-epoch is a cancellation,
// not a divergence — the log was never contradicted, the run was abandoned.
// cordd relies on this distinction: client disconnects must map to the
// context error, never to a "replay diverged" verdict.
func TestCancelDuringReplay(t *testing.T) {
	cancel := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := New(Config{
			Seed: 1, Cancel: cancel, ReplayEpochs: spinEpochs(4, 10_000_000),
		}, spinProg(4, 10_000_000)).Run()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	close(cancel)
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("replay returned %v, want ErrCanceled", err)
		}
		if errors.Is(err, ErrReplayDivergence) {
			t.Fatalf("cancellation misclassified as divergence: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("replay did not stop after cancellation")
	}
}

// TestCancelBeforeReplay: a pre-canceled replay aborts before following any
// epoch.
func TestCancelBeforeReplay(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	_, err := New(Config{
		Seed: 1, Cancel: cancel, ReplayEpochs: spinEpochs(2, 10_000_000),
	}, spinProg(2, 10_000_000)).Run()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("replay returned %v, want ErrCanceled", err)
	}
}

// TestCancelDuringReplayLeaksNoGoroutines: the replay scheduler's parked
// threads must unwind on cancellation exactly like the jitter scheduler's.
func TestCancelDuringReplayLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		cancel := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			_, _ = New(Config{
				Seed: uint64(i + 1), Cancel: cancel, ReplayEpochs: spinEpochs(4, 10_000_000),
			}, spinProg(4, 10_000_000)).Run()
		}()
		time.Sleep(time.Millisecond)
		close(cancel)
		<-done
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after canceled replays", before, runtime.NumGoroutine())
}

// TestNilCancelUnaffected: the default configuration (no Cancel channel) is
// untouched by the cancellation path — the run completes normally.
func TestNilCancelUnaffected(t *testing.T) {
	res, err := New(Config{Seed: 1}, spinProg(2, 100)).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Ops != 200 {
		t.Fatalf("ops = %d, want 200", res.Ops)
	}
}
