package workload

import (
	"slices"
	"testing"

	"cord/internal/sim"
)

func TestCatalogueComplete(t *testing.T) {
	apps := All()
	if len(apps) != 12 {
		t.Fatalf("Table 1 has 12 applications, got %d", len(apps))
	}
	want := []string{"barnes", "cholesky", "fft", "fmm", "lu", "ocean",
		"radiosity", "radix", "raytrace", "volrend", "water-n2", "water-sp"}
	for i, name := range want {
		if apps[i].Name != name {
			t.Fatalf("app %d = %s, want %s (Table 1 order)", i, apps[i].Name, name)
		}
		if apps[i].Input == "" {
			t.Fatalf("%s missing its paper input label", name)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestAllAppsRunToCompletion(t *testing.T) {
	for _, app := range All() {
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= 4; seed++ {
				res, err := sim.New(sim.Config{Seed: seed, Jitter: 7}, app.Build(1, 4)).Run()
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if res.Hung {
					t.Fatalf("seed %d: hung", seed)
				}
				if res.Accesses == 0 || res.SyncInstances == 0 {
					t.Fatalf("seed %d: degenerate run %+v", seed, res)
				}
			}
		})
	}
}

func TestAppsScale(t *testing.T) {
	for _, name := range []string{"cholesky", "fft", "water-n2"} {
		app, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		small, err := sim.New(sim.Config{Seed: 1, Jitter: 5}, app.Build(1, 4)).Run()
		if err != nil {
			t.Fatal(err)
		}
		big, err := sim.New(sim.Config{Seed: 1, Jitter: 5}, app.Build(3, 4)).Run()
		if err != nil {
			t.Fatal(err)
		}
		if big.Accesses <= small.Accesses {
			t.Fatalf("%s: scale 3 (%d accesses) not larger than scale 1 (%d)",
				name, big.Accesses, small.Accesses)
		}
	}
}

func TestAppsAtOtherThreadCounts(t *testing.T) {
	for _, threads := range []int{2, 8} {
		for _, app := range All() {
			res, err := sim.New(sim.Config{Seed: 2, Jitter: 7, Procs: threads},
				app.Build(1, threads)).Run()
			if err != nil {
				t.Fatalf("%s @%d threads: %v", app.Name, threads, err)
			}
			if res.Hung {
				t.Fatalf("%s @%d threads hung", app.Name, threads)
			}
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	for _, app := range All() {
		a, err := sim.New(sim.Config{Seed: 9, Jitter: 7}, app.Build(1, 4)).Run()
		if err != nil {
			t.Fatal(err)
		}
		b, err := sim.New(sim.Config{Seed: 9, Jitter: 7}, app.Build(1, 4)).Run()
		if err != nil {
			t.Fatal(err)
		}
		if a.Ops != b.Ops || a.Cycles != b.Cycles {
			t.Fatalf("%s not deterministic: %d/%d vs %d/%d ops/cycles",
				app.Name, a.Ops, a.Cycles, b.Ops, b.Cycles)
		}
		for i := range a.ReadHash {
			if a.ReadHash[i] != b.ReadHash[i] {
				t.Fatalf("%s thread %d hash differs between identical runs", app.Name, i)
			}
		}
	}
}

func TestLCGBasics(t *testing.T) {
	r := newLCG(1)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.n(10)
		if v < 0 || v >= 10 {
			t.Fatalf("n(10) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("lcg covered %d/10 values in 1000 draws", len(seen))
	}
	if newLCG(1).next() != newLCG(1).next() {
		t.Fatal("lcg not deterministic")
	}
	if r.n(0) != 0 {
		t.Fatal("n(0) should be 0")
	}
}

// TestHeaviestFirst: indices come out in descending Table 1 access count of
// their application, with ties and unknown names (cost 0) in index order.
func TestHeaviestFirst(t *testing.T) {
	names := []string{"lu", "water-n2", "unknown", "fft", "lu", "water-sp", "water-n2"}
	got := HeaviestFirst(len(names), func(i int) string { return names[i] })
	want := []int{1, 6, 3, 0, 4, 5, 2}
	if !slices.Equal(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
	if got := HeaviestFirst(0, nil); len(got) != 0 {
		t.Fatalf("empty order %v", got)
	}
}
