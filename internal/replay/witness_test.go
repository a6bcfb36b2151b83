package replay

import (
	"testing"

	"cord/internal/core"
	"cord/internal/sim"
	"cord/internal/trace"
	"cord/internal/workload"
)

// TestReplayTimeDetectionMayDiffer is the witness behind PROTOCOL.md §4.7:
// CORD detection over a replay of an injected run is not always equal to
// detection during the recording. The order log orders only the races the
// recorder saw, so the replay reproduces every thread's values and
// instruction counts, yet spin loops may run a different number of times
// and the global access order differs (Guo et al., arXiv:1107.2003). This
// radix run finds 48 racy accesses while recording and 96 over the replay,
// and RecordAndReplay still reports a match.
func TestReplayTimeDetectionMayDiffer(t *testing.T) {
	app, err := workload.ByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	const seed, jitter, inject = 221732, 7, 3

	recDet := core.New(core.Config{Threads: 4, D: 16, Record: true})
	rec, err := sim.New(sim.Config{
		Seed: seed, Jitter: jitter, InjectSkip: inject,
		Observers: []trace.Observer{recDet},
	}, app.Build(1, 4)).Run()
	if err != nil {
		t.Fatal(err)
	}
	epochs, err := recDet.Log().Schedule(4)
	if err != nil {
		t.Fatal(err)
	}
	repDet := core.New(core.Config{Threads: 4, D: 16})
	rep, err := sim.New(sim.Config{
		Seed:            seed,
		ReplayEpochs:    epochs,
		InjectThread:    rec.InjectedThread,
		InjectThreadNth: rec.InjectedThreadNth,
		Observers:       []trace.Observer{repDet},
	}, app.Build(1, 4)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := [2]int{recDet.RaceCount(), repDet.RaceCount()}, [2]int{48, 96}; got != want {
		t.Errorf("racy accesses recorded/replayed = %v, want %v", got, want)
	}
	if got, want := [2]uint64{rec.Accesses, rep.Accesses}, [2]uint64{7638, 7621}; got != want {
		t.Errorf("accesses recorded/replayed = %v, want %v", got, want)
	}

	out, err := RecordAndReplay(app.Build(1, 4), Options{Seed: seed, Jitter: jitter, InjectSkip: inject})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Match {
		t.Fatalf("RecordAndReplay: %s; the replay must still be value-equivalent", out.Mismatch)
	}
}
