package core

import (
	"testing"

	"cord/internal/directory"
	"cord/internal/memsys"
	"cord/internal/sim"
	"cord/internal/trace"
	"cord/internal/workload"
)

// TestDirectoryEquivalence: the directory-coherence variant reports exactly
// the races and records exactly the log the snooping variant does, on clean
// and injected runs — the sharer sets name precisely the caches snooping
// would probe.
func TestDirectoryEquivalence(t *testing.T) {
	for _, name := range []string{"raytrace", "fft", "water-sp", "cholesky"} {
		app, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, inject := range []uint64{0, 7, 23} {
			snoop := New(Config{Threads: 4, D: 16, Record: true})
			dir := directory.New(4)
			dird := New(Config{Threads: 4, D: 16, Record: true, Directory: dir})
			res, err := sim.New(sim.Config{
				Seed: 3, Jitter: 7, InjectSkip: inject,
				Observers: []trace.Observer{snoop, dird},
			}, app.Build(1, 4)).Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Hung {
				continue
			}
			if snoop.RaceCount() != dird.RaceCount() {
				t.Fatalf("%s inject %d: snoop %d races, directory %d",
					name, inject, snoop.RaceCount(), dird.RaceCount())
			}
			sl, dl := snoop.Log().Entries(), dird.Log().Entries()
			if len(sl) != len(dl) {
				t.Fatalf("%s inject %d: log lengths differ: %d vs %d", name, inject, len(sl), len(dl))
			}
			for i := range sl {
				if sl[i] != dl[i] {
					t.Fatalf("%s inject %d: log entry %d differs: %v vs %v",
						name, inject, i, sl[i], dl[i])
				}
			}
			if dir.Stats().Requests == 0 {
				t.Fatalf("%s: directory carried no traffic", name)
			}
		}
	}
}

// TestDirectoryInvariant: the directory's sharer sets always match the
// detector caches' actual contents.
func TestDirectoryInvariant(t *testing.T) {
	app, err := workload.ByName("ocean")
	if err != nil {
		t.Fatal(err)
	}
	dir := directory.New(4)
	det := New(Config{Threads: 4, D: 16, Directory: dir})
	// Validate at intervals through the run via a tapping observer.
	checks := 0
	tap := &trace.FuncObserver{Label: "validate", Fn: func(a trace.Access) {
		if a.Seq%2048 != 0 {
			return
		}
		checks++
		err := dir.Validate(func(l memsys.Line, p int) bool {
			return det.CacheContains(p, l)
		})
		if err != nil {
			t.Fatal(err)
		}
	}}
	// The detector must run before the tap so the tap sees settled state.
	_, err = sim.New(sim.Config{
		Seed: 5, Jitter: 7,
		Observers: []trace.Observer{det, tap},
	}, app.Build(1, 4)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if checks == 0 {
		t.Fatal("invariant never checked")
	}
	if err := dir.Validate(func(l memsys.Line, p int) bool {
		return det.CacheContains(p, l)
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDirectoryScalesBetterThanBroadcast: at 16 processors, point-to-point
// forwards stay proportional to actual sharing while a broadcast protocol
// pays procs-1 snoops per transaction — the reason the paper points at
// directories for larger systems.
func TestDirectoryScalesBetterThanBroadcast(t *testing.T) {
	const procs = 16
	app, err := workload.ByName("raytrace")
	if err != nil {
		t.Fatal(err)
	}
	dir := directory.New(procs)
	det := New(Config{Threads: procs, Procs: procs, D: 16, Directory: dir})
	_, err = sim.New(sim.Config{
		Seed: 2, Jitter: 7, Procs: procs,
		Observers: []trace.Observer{det},
	}, app.Build(1, procs)).Run()
	if err != nil {
		t.Fatal(err)
	}
	st := dir.Stats()
	if st.Requests == 0 {
		t.Fatal("no directory traffic")
	}
	broadcastMsgs := st.Requests * uint64(procs-1)
	if st.Forwards >= broadcastMsgs/2 {
		t.Fatalf("forwards (%d) not substantially below broadcast (%d): sharing is sparse, so forwards should be few",
			st.Forwards, broadcastMsgs)
	}
	avg := float64(st.Forwards) / float64(st.Requests)
	t.Logf("16 procs: %.2f forwards/request vs %d snoops/broadcast", avg, procs-1)
}

// TestDirectoryTimingEndToEnd: CORD over a directory, as the primary
// detector of a timed run on 8 processors, runs race-free fft to completion
// with directory traffic and no reported races.
func TestDirectoryTimingEndToEnd(t *testing.T) {
	const procs = 8
	app, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	dir := directory.New(procs)
	det := New(Config{Threads: procs, Procs: procs, D: 16, Record: true, Directory: dir})
	res, err := sim.New(sim.Config{
		Seed: 1, Jitter: 2, Procs: procs,
		Observers: []trace.Observer{det},
		Primary:   det,
	}, app.Build(1, procs)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Hung || res.Cycles == 0 {
		t.Fatalf("bad run %+v", res)
	}
	if dir.Stats().Requests == 0 {
		t.Fatal("directory carried no traffic")
	}
	if det.RaceCount() != 0 {
		t.Fatalf("race-free fft reported %d races", det.RaceCount())
	}
}
