package experiment

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cord/internal/chaos"
	"cord/internal/checkpoint"
)

// encodeDetection renders the fixture detection campaign's artifacts into one
// byte stream, the currency every byte-identity assertion here trades in.
func encodeDetection(t *testing.T, o Options, res *DetectionResults) []byte {
	t.Helper()
	meta := o.Meta()
	var buf bytes.Buffer
	for _, f := range []Figure{res.Fig10(), res.Fig12(), res.Fig16()} {
		a := FigureArtifact(f, meta)
		b, err := a.Encode()
		if err != nil {
			t.Fatalf("%s: %v", a.ID, err)
		}
		fmt.Fprintf(&buf, "== %s ==\n", a.ID)
		buf.Write(b)
	}
	return buf.Bytes()
}

// Environment contract of the crash-resume helper subprocess.
const (
	ckptHelperOut     = "CORD_CKPT_OUT"     // artifact output file
	ckptHelperJournal = "CORD_CKPT_JOURNAL" // checkpoint journal path
)

// TestCheckpointHelper is the subprocess side of the crash-resume check.
// Under normal `go test` runs (env unset) it does nothing. When re-executed
// by TestCrashResumeByteIdentical it runs the fixture detection campaign
// under a checkpoint journal and whatever CORD_CHAOS the parent armed —
// typically crash-after=K, which os.Exit(42)s this process mid-campaign
// with no cleanup, the in-process stand-in for kill -9.
func TestCheckpointHelper(t *testing.T) {
	out := os.Getenv(ckptHelperOut)
	if out == "" {
		t.Skip("not running as a checkpoint helper")
	}
	jl, err := checkpoint.Open(os.Getenv(ckptHelperJournal))
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	cha, err := chaos.FromEnv()
	if err != nil {
		t.Fatal(err)
	}
	o := twoAppOpts(2)
	o.Checkpoint = jl
	o.Chaos = cha
	res, err := RunDetection(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, encodeDetection(t, o, res), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCrashResumeByteIdentical is the acceptance test for crash-safe
// campaigns: a campaign killed without cleanup (chaos crash-after=K →
// os.Exit, no flushes, no defers) and then resumed from its journal must
// produce artifacts byte-identical to an uninterrupted run. The helper is
// re-invoked with the same journal until it survives; every invocation
// before that must die with chaos.CrashExitCode.
func TestCrashResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns campaign subprocesses")
	}
	// The uninterrupted reference, in-process.
	ref := twoAppOpts(2)
	res, err := RunDetection(ref)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeDetection(t, ref, res)

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	outPath := filepath.Join(dir, "artifacts")
	journal := filepath.Join(dir, "journal.cordckpt")
	crashes := 0
	for attempt := 0; ; attempt++ {
		if attempt > 20 {
			t.Fatalf("campaign still crashing after %d resumes", attempt)
		}
		cmd := exec.Command(exe, "-test.run=^TestCheckpointHelper$", "-test.count=1")
		cmd.Env = append(os.Environ(),
			ckptHelperOut+"="+outPath,
			ckptHelperJournal+"="+journal,
			chaos.EnvVar+"=crash-after=3",
		)
		b, err := cmd.CombinedOutput()
		if err == nil {
			break // survived: fewer than K runs were left to do
		}
		var xerr *exec.ExitError
		if !errors.As(err, &xerr) || xerr.ExitCode() != chaos.CrashExitCode {
			t.Fatalf("helper died with %v, want exit %d:\n%s", err, chaos.CrashExitCode, b)
		}
		crashes++
	}
	if crashes == 0 {
		t.Fatal("campaign never crashed; crash-after=3 should kill a 10-run campaign at least once")
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("artifacts after %d crash/resume cycles differ from the uninterrupted run:\nresumed:\n%s\nuninterrupted:\n%s",
			crashes, got, want)
	}
	t.Logf("campaign survived %d injected crashes; artifacts byte-identical", crashes)
}

// TestResumeSkipsJournaledRuns: resuming a completed campaign re-simulates
// nothing — every run is a checkpoint hit — and reproduces the rows exactly.
func TestResumeSkipsJournaledRuns(t *testing.T) {
	jl, err := checkpoint.Open(filepath.Join(t.TempDir(), "j.cordckpt"))
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	o := twoAppOpts(1)
	o.Checkpoint = jl
	rows1, err := RunTable1(o)
	if err != nil {
		t.Fatal(err)
	}
	if jl.Len() != len(o.Apps) {
		t.Fatalf("journal holds %d runs, want %d", jl.Len(), len(o.Apps))
	}
	hitsBefore := jl.Hits()
	rows2, err := RunTable1(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := jl.Hits() - hitsBefore; got != len(o.Apps) {
		t.Fatalf("resume hit the journal %d times, want %d (every run skipped)", got, len(o.Apps))
	}
	if fmt.Sprint(rows1) != fmt.Sprint(rows2) {
		t.Fatalf("resumed rows differ:\n%v\nvs\n%v", rows1, rows2)
	}
}

// TestJournalMissesAcrossConfigs: a journal written under one campaign
// configuration must not leak outcomes into another — the fingerprint in the
// run key keeps lookups from aliasing.
func TestJournalMissesAcrossConfigs(t *testing.T) {
	jl, err := checkpoint.Open(filepath.Join(t.TempDir(), "j.cordckpt"))
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	o := twoAppOpts(1)
	o.Checkpoint = jl
	if _, err := RunTable1(o); err != nil {
		t.Fatal(err)
	}
	hits := jl.Hits()
	o2 := o
	o2.BaseSeed++ // different campaign configuration
	if _, err := RunTable1(o2); err != nil {
		t.Fatal(err)
	}
	if jl.Hits() != hits {
		t.Fatalf("a different BaseSeed reused %d journaled outcomes", jl.Hits()-hits)
	}
	if jl.Len() != 2*len(o.Apps) {
		t.Fatalf("journal holds %d entries, want %d (both configurations journaled)", jl.Len(), 2*len(o.Apps))
	}
}

// TestFatalFailureDoesNotRetry: a failing run aborts on its one call. A run
// is a pure function of its seed, so a second call would fail the same way.
func TestFatalFailureDoesNotRetry(t *testing.T) {
	o := Options{Procs: 1}
	boom := errors.New("fatal")
	calls := 0
	var sink struct{}
	if err := o.journaledRun("fatal", 0, 0, &sink, func() error {
		calls++
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if calls != 1 {
		t.Fatalf("fatal error was attempted %d times, want 1", calls)
	}
}

// TestJournalFaultIsNonFatal: a failed journal append costs durability, not
// the campaign — the run's outcome is already in memory and the failure is
// reported on Progress.
func TestJournalFaultIsNonFatal(t *testing.T) {
	jl, err := checkpoint.Open(filepath.Join(t.TempDir(), "j.cordckpt"))
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	jl.SetWriteFault(func() error { return errors.New("disk full") })
	var progress bytes.Buffer
	o := twoAppOpts(1)
	o.Checkpoint = jl
	o.Progress = &progress
	if _, err := RunTable1(o); err != nil {
		t.Fatal(err)
	}
	if jl.Len() != 0 {
		t.Fatalf("journal holds %d entries despite every append failing", jl.Len())
	}
	if !strings.Contains(progress.String(), "not journaled") {
		t.Fatalf("progress does not report the dropped appends:\n%s", progress.String())
	}
}

// TestInterruptStopsDispatch: a closed Interrupt channel surfaces
// ErrInterrupted from every campaign entry point instead of running work.
func TestInterruptStopsDispatch(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	o := twoAppOpts(1)
	o.Interrupt = stop
	if _, err := RunTable1(o); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("serial: err = %v, want ErrInterrupted", err)
	}
	o = twoAppOpts(4)
	o.Interrupt = stop
	if _, err := RunDetection(o); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("parallel: err = %v, want ErrInterrupted", err)
	}
}

// TestInterruptDrainsAndJournals: interrupting mid-campaign keeps the runs
// that already completed — they are in the journal, and a resume finds them.
func TestInterruptDrainsAndJournals(t *testing.T) {
	jl, err := checkpoint.Open(filepath.Join(t.TempDir(), "j.cordckpt"))
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	stop := make(chan struct{})
	var once sync.Once
	o := twoAppOpts(1)
	o.Checkpoint = jl
	o.Interrupt = stop
	// Interrupt as the first run's outcome is journaled; the serial loop
	// must notice before dispatching the second run.
	jl.SetWriteFault(func() error {
		once.Do(func() { close(stop) })
		return nil
	})
	_, err = RunTable1(o)
	jl.SetWriteFault(nil)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if jl.Len() == 0 {
		t.Fatal("no completed run was journaled before the interrupt")
	}
	if jl.Len() >= len(o.Apps) {
		t.Fatalf("all %d runs completed; the interrupt stopped nothing", jl.Len())
	}

	// The resume completes the campaign reusing the drained runs.
	o2 := twoAppOpts(1)
	o2.Checkpoint = jl
	if _, err := RunTable1(o2); err != nil {
		t.Fatal(err)
	}
	if jl.Hits() == 0 {
		t.Fatal("resume reused none of the journaled runs")
	}
}

// TestForEachJoinsDistinctErrors: parallel campaign failures report every
// distinct per-worker first error, not whichever lost the race; duplicate
// failure texts collapse to one.
func TestForEachJoinsDistinctErrors(t *testing.T) {
	const procs = 4
	o := Options{Procs: procs}
	var gate sync.WaitGroup
	gate.Add(procs)
	err := o.forEach(procs, unknownApp, func(i int) error {
		// Hold every worker at the barrier so all of them fail, not just
		// whichever errored first.
		gate.Done()
		gate.Wait()
		return fmt.Errorf("app %d exploded", i)
	})
	if err == nil {
		t.Fatal("no error returned")
	}
	for i := 0; i < procs; i++ {
		if !strings.Contains(err.Error(), fmt.Sprintf("app %d exploded", i)) {
			t.Fatalf("joined error lost worker %d's failure:\n%v", i, err)
		}
	}

	// Identical failure text from every worker collapses to one line.
	gate = sync.WaitGroup{}
	gate.Add(procs)
	err = o.forEach(procs, unknownApp, func(i int) error {
		gate.Done()
		gate.Wait()
		return errors.New("same failure")
	})
	if err == nil || strings.Count(err.Error(), "same failure") != 1 {
		t.Fatalf("duplicate errors did not collapse:\n%v", err)
	}
}
