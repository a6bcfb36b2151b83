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
// the engine resumes a thread's coroutine at most once per two delivered
// accesses over the twelve apps. Calls that return nothing do not park, so
// only reads, sync enters and blocks can cost a switch; when every call
// parked, the same runs took 0.93 resumes per access.
func TestResumesPerAccess(t *testing.T) {
	const threads, seeds = 4, 10
	var resumes, accesses uint64
	for _, app := range workload.All() {
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
			resumes += eng.Resumes()
			accesses += res.Accesses
		}
	}
	perAccess := float64(resumes) / float64(accesses)
	t.Logf("%d resumes for %d accesses: %.3f per access", resumes, accesses, perAccess)
	if perAccess > 0.5 {
		t.Fatalf("%.3f resumes per access, want at most 0.5", perAccess)
	}
}
