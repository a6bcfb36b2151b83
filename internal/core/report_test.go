package core

import (
	"fmt"
	"testing"

	"cord/internal/progen"
	"cord/internal/sim"
	"cord/internal/trace"
	"cord/internal/workload"
)

// reportSum is a CORD detector whose per-access reports are summed as the
// engine delivers them.
type reportSum struct {
	*Detector
	checks, memTs uint64
	races         int
}

func (r *reportSum) OnAccess(a trace.Access) trace.Report {
	rep := r.Detector.OnAccess(a)
	r.checks += uint64(rep.CheckRequests)
	r.memTs += uint64(rep.MemTsUpdates)
	r.races += len(rep.Races)
	return rep
}

// check asserts that the per-access reports account for every counted
// transaction. The walker runs only at the start of an access and its
// memory-timestamp updates go into that access's report, so none is left
// out and the sums are exact.
func (r *reportSum) check(t *testing.T, run string) {
	t.Helper()
	st := r.Stats()
	if r.checks != st.CheckRequests {
		t.Errorf("%s: reports sum to %d check requests, Stats has %d", run, r.checks, st.CheckRequests)
	}
	if r.memTs != st.MemTsBroadcasts {
		t.Errorf("%s: reports sum to %d memory-timestamp updates, Stats has %d", run, r.memTs, st.MemTsBroadcasts)
	}
	if r.races != len(r.Races()) {
		t.Errorf("%s: reports carry %d races, Races() has %d", run, r.races, len(r.Races()))
	}
}

// TestReportsSumToStats runs CORD as the primary detector over the 12 apps
// and generated programs, with injected sync removals and migrations, and
// checks that the per-access reports the timing model prices add up to the
// detector's own counters.
func TestReportsSumToStats(t *testing.T) {
	const threads = 4
	var total Stats
	run := func(name string, prog sim.Program, d int, cfg sim.Config) {
		r := &reportSum{Detector: New(Config{Threads: threads, Procs: threads, D: d, Record: true})}
		cfg.Observers, cfg.Primary = []trace.Observer{r}, r
		if _, err := sim.New(cfg, prog).Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r.check(t, name)
		total.CheckRequests += r.Stats().CheckRequests
		total.MemTsBroadcasts += r.Stats().MemTsBroadcasts
		total.RaceReports += r.Stats().RaceReports
	}
	for i, app := range workload.All() {
		for _, inject := range []uint64{0, 3} {
			name := fmt.Sprintf("%s inject %d", app.Name, inject)
			run(name, app.Build(1, threads), []int{1, 16}[i%2],
				sim.Config{Seed: uint64(i + 1), Jitter: 7, Procs: threads, InjectSkip: inject, MigrateEvery: uint64(i % 3 * 5)})
		}
	}
	for seed := uint64(1); seed <= 8; seed++ {
		p := progen.New(seed, progen.DefaultConfig())
		name := fmt.Sprintf("progen %d", seed)
		run(name, p.Prog, 4, sim.Config{Seed: seed, Jitter: 7, Procs: threads, InjectSkip: 1 + seed%5, MigrateEvery: seed % 2 * 7})
	}
	if total.CheckRequests == 0 || total.MemTsBroadcasts == 0 || total.RaceReports == 0 {
		t.Fatalf("nothing to account for: %+v", total)
	}
	t.Logf("%d check requests, %d memory-timestamp updates, %d reported races", total.CheckRequests, total.MemTsBroadcasts, total.RaceReports)
}

// TestFilterHitReportsMemTsUpdate: a hit that passes the check filter still
// stamps the line, and when the clock has moved on twice the stamp rotates a
// written timestamp out of the line into the memory write timestamp. That is
// one memory-timestamp broadcast, and the access's report must carry it to
// the timing model.
func TestFilterHitReportsMemTsUpdate(t *testing.T) {
	det, f := newTest(1)
	f.write(0, varX) // miss with no remote holder: X is exclusive, both filters set
	for k := 0; k < 2; k++ {
		f.syncWrite(0, varL) // the clock moves on
		before := det.Stats()
		rep := f.write(0, varX)
		st := det.Stats()
		if st.FilterHits != before.FilterHits+1 {
			t.Fatalf("write %d to X did not take the filter path: %+v", k+2, st)
		}
		want := int32(k) // the first rotation spills an empty slot
		if rep.MemTsUpdates != want || st.MemTsBroadcasts != before.MemTsBroadcasts+uint64(want) {
			t.Fatalf("write %d to X: report carries %d memory-timestamp updates, Stats counted %d, want %d",
				k+2, rep.MemTsUpdates, st.MemTsBroadcasts-before.MemTsBroadcasts, want)
		}
	}
}
