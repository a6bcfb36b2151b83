package replay

import (
	"testing"

	"cord/internal/baseline"
	"cord/internal/core"
	"cord/internal/sim"
	"cord/internal/trace"
	"cord/internal/workload"
)

// TestNoFalsePositives is the paper's central safety claim (§2.3, §6): CORD
// "reports no false positives". Every race CORD reports in an injected run
// must be confirmed by the Ideal oracle — the same reporting access racing
// against a conflicting access of the same kind from the same thread under
// full happens-before.
func TestNoFalsePositives(t *testing.T) {
	for _, app := range workload.All() {
		t.Run(app.Name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				for _, inj := range []uint64{2, 9, 23, 57} {
					prog := app.Build(1, 4)
					ideal := baseline.NewIdeal(prog.Threads)
					dets := []*core.Detector{
						core.New(core.Config{Threads: prog.Threads, D: 1}),
						core.New(core.Config{Threads: prog.Threads, D: 16}),
						core.New(core.Config{Threads: prog.Threads, D: 256}),
					}
					obs := []trace.Observer{ideal}
					for _, d := range dets {
						obs = append(obs, d)
					}
					res, err := sim.New(sim.Config{
						Seed: seed, Jitter: 7, InjectSkip: inj, Observers: obs,
					}, prog).Run()
					if err != nil {
						t.Fatal(err)
					}
					if res.Hung {
						continue
					}
					for _, d := range dets {
						for _, r := range d.Races() {
							if !ideal.Confirms(r) {
								t.Fatalf("seed %d inj %d: %s reported a false positive: %v",
									seed, inj, d.Name(), r)
							}
						}
					}
				}
			}
		})
	}
}

// TestVectorBaselineNoFalsePositives: the vector-clock baselines share the
// no-false-positive property (their ordering is exact where history
// survives; discarded history only loses races).
func TestVectorBaselineNoFalsePositives(t *testing.T) {
	for _, name := range []string{"raytrace", "fft", "water-n2", "barnes"} {
		app, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, inj := range []uint64{3, 31} {
			prog := app.Build(1, 4)
			ideal := baseline.NewIdeal(prog.Threads)
			vec := baseline.NewVecCache(baseline.VecConfig{Threads: prog.Threads, Bound: baseline.BoundL2})
			res, err := sim.New(sim.Config{
				Seed: 4, Jitter: 7, InjectSkip: inj,
				Observers: []trace.Observer{ideal, vec},
			}, prog).Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Hung {
				continue
			}
			for _, r := range vec.Races() {
				if !ideal.Confirms(r) {
					t.Fatalf("%s inj %d: vector baseline false positive: %v", name, inj, r)
				}
			}
		}
	}
}
