package cord_test

// Soak coverage: larger-scale, multi-seed sweeps that exercise every
// workload with recording, detection and replay simultaneously. Skipped in
// -short mode.

import (
	"testing"

	"cord"
)

func TestSoakAllAppsScaledWithReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	for _, app := range cord.Apps() {
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(100); seed < 103; seed++ {
				out, err := cord.RecordAndReplay(app.Build(2, 4),
					cord.ReplayOptions{Seed: seed, Jitter: 9})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if out.Recorded.Hung {
					t.Fatalf("seed %d hung", seed)
				}
				if !out.Match {
					t.Fatalf("seed %d: %s", seed, out.Mismatch)
				}
				if out.Log.SizeBytes() >= 1<<20 {
					t.Fatalf("seed %d: log %d bytes", seed, out.Log.SizeBytes())
				}
			}
		})
	}
}

func TestSoakInjectionSweepNoFalsePositives(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	for _, name := range []string{"cholesky", "barnes", "water-n2", "ocean"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			app := cord.AppByName(name)
			for inj := uint64(1); inj <= 25; inj += 3 {
				det := cord.NewDetector(cord.DetectorConfig{Threads: 4, D: 16})
				ideal := cord.NewIdealDetector(4)
				res, err := cord.Run(app.Build(1, 4), cord.RunConfig{
					Seed: inj * 7, Jitter: 7, InjectSkip: inj,
					Observers: []cord.Observer{ideal, det},
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Hung {
					continue
				}
				for _, r := range det.Races() {
					if !ideal.Confirms(r) {
						t.Fatalf("inj %d: false positive %v", inj, r)
					}
				}
			}
		})
	}
}
