package core

import (
	"testing"

	"cord/internal/directory"
	"cord/internal/memsys"
	"cord/internal/sim"
	"cord/internal/trace"
	"cord/internal/workload"
)

// TestDirectoryEquivalence: attaching the directory's message counter
// changes neither the races a detector reports nor the log it records, on
// clean and injected runs: the counter only observes the snooping probe.
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

// TestDirectoryMessageCounts drives one detector by hand and checks the
// exact messages each transaction costs under a directory: one request to
// the home, plus one forward and one response per remote holder.
func TestDirectoryMessageCounts(t *testing.T) {
	dir := directory.New(4)
	det := New(Config{Threads: 4, Procs: 4, D: 1, Record: true, Directory: dir})
	f := newFeeder(det)
	state := func(proc int, a memsys.Addr) mesi {
		ls, ok := det.caches[proc].Peek(memsys.LineOf(a))
		if !ok {
			t.Fatalf("proc %d does not hold %#x", proc, a)
		}
		return ls.state
	}
	step := func(what string, holders uint64, do func()) {
		t.Helper()
		before := dir.Stats()
		do()
		st := dir.Stats()
		got := [3]uint64{st.Requests - before.Requests, st.Forwards - before.Forwards, st.Responses - before.Responses}
		if want := [3]uint64{1, holders, holders}; got != want {
			t.Fatalf("%s: requests/forwards/responses %v, want %v", what, got, want)
		}
	}

	step("read miss, no holder", 0, func() { f.read(0, varX) })
	step("read miss, one holder", 1, func() { f.read(1, varX) })
	// Proc 1's fetch cleared proc 0's filter bits, and word 1 of X is not
	// in proc 0's access bits: the hit needs an explicit race check.
	checks := det.Stats().CheckRequests
	step("explicit check after a filter miss", 1, func() { f.read(0, varX+memsys.WordBytes) })
	if det.Stats().CheckRequests != checks+1 {
		t.Fatal("the hit did not take an explicit race check")
	}
	step("write miss invalidating two holders", 2, func() { f.write(2, varX) })
	for _, p := range []int{0, 1} {
		if _, held := det.caches[p].Peek(memsys.LineOf(varX)); held {
			t.Fatalf("proc %d still holds X after the invalidating write", p)
		}
	}

	step("read miss, no holder", 0, func() { f.read(0, varY) })
	step("read miss, one holder", 1, func() { f.read(1, varY) })
	if state(1, varY) != shared {
		t.Fatal("Y is not shared at proc 1")
	}
	step("upgrade", 1, func() { f.write(1, varY) })
	if _, held := det.caches[0].Peek(memsys.LineOf(varY)); state(1, varY) != owned || held {
		t.Fatal("the upgrade did not take Y exclusively")
	}
}
