package replay

import (
	"testing"

	"cord/internal/baseline"
	"cord/internal/sim"
	"cord/internal/trace"
	"cord/internal/workload"
)

// TestReplayAllWorkloads records and replays every application with several
// seeds; every replay must reproduce the recording exactly (the paper's
// §3.3 verification).
func TestReplayAllWorkloads(t *testing.T) {
	for _, app := range workload.All() {
		t.Run(app.Name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				prog := app.Build(1, 4)
				out, err := RecordAndReplay(prog, Options{Seed: seed, Jitter: 7})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if out.Recorded.Hung {
					t.Fatalf("seed %d: base run hung", seed)
				}
				if !out.Match {
					t.Fatalf("seed %d: replay mismatch: %s", seed, out.Mismatch)
				}
			}
		})
	}
}

// TestReplayInjectedRuns replays injected (racy) executions: order recording
// must capture the race outcomes so even buggy runs replay exactly.
func TestReplayInjectedRuns(t *testing.T) {
	apps := []string{"raytrace", "cholesky", "water-sp", "lu"}
	for _, name := range apps {
		app, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 2; seed++ {
			for _, inj := range []uint64{3, 17, 41} {
				prog := app.Build(1, 4)
				out, err := RecordAndReplay(prog, Options{Seed: seed, Jitter: 7, InjectSkip: inj})
				if err != nil {
					t.Fatalf("%s seed %d inj %d: %v", name, seed, inj, err)
				}
				if out.Recorded.Hung {
					continue // injection artifact; nothing to replay
				}
				if !out.Match {
					t.Fatalf("%s seed %d inj %d: replay mismatch: %s", name, seed, inj, out.Mismatch)
				}
			}
		}
	}
}

// TestWorkloadsAreRaceFree: without injection, the Ideal oracle must find
// zero data races in every application (they are properly labeled programs).
func TestWorkloadsAreRaceFree(t *testing.T) {
	for _, app := range workload.All() {
		t.Run(app.Name, func(t *testing.T) {
			ideal := baseline.NewIdeal(4)
			prog := app.Build(1, 4)
			res, err := sim.New(sim.Config{Seed: 11, Jitter: 7, Observers: []trace.Observer{ideal}}, prog).Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Hung {
				t.Fatal("hung")
			}
			if n := ideal.RaceCount(); n != 0 {
				t.Fatalf("base program has %d data races (first: %v)", n, ideal.Races()[0])
			}
		})
	}
}

// TestLogSizeUnderOneMB: the paper's §3.3 claim — compact logs.
func TestLogSizeUnderOneMB(t *testing.T) {
	for _, app := range workload.All() {
		prog := app.Build(1, 4)
		out, err := RecordAndReplay(prog, Options{Seed: 2, Jitter: 5})
		if err != nil {
			t.Fatal(err)
		}
		if size := out.Log.SizeBytes(); size >= 1<<20 {
			t.Fatalf("%s: log is %d bytes, want < 1 MiB", app.Name, size)
		}
	}
}
