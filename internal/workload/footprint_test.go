package workload

import (
	"testing"

	"cord/internal/cache"
	"cord/internal/memsys"
	"cord/internal/sim"
	"cord/internal/trace"
)

// TestFootprintRegimes guards the working-set design behind Figs. 14/15:
// the buffering-limit gradient needs applications whose shared footprints
// straddle the 8 KB L1 and 32 KB L2 bounds. A refactor that shrinks these
// working sets would silently flatten those figures.
func TestFootprintRegimes(t *testing.T) {
	footprint := func(name string) int {
		app, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		lines := map[memsys.Line]bool{}
		tap := &trace.FuncObserver{Label: "fp", Fn: func(a trace.Access) {
			lines[memsys.LineOf(a.Addr)] = true
		}}
		if _, err := sim.New(sim.Config{Seed: 1, Jitter: 7,
			Observers: []trace.Observer{tap}}, app.Build(1, 4)).Run(); err != nil {
			t.Fatal(err)
		}
		return len(lines) * memsys.LineBytes
	}
	l1, l2 := cache.L1.SizeBytes, cache.L2.SizeBytes
	// Above-L1 apps: their racy histories must outlive the phase but not
	// (always) the L1.
	for _, name := range []string{"raytrace", "volrend", "fft", "barnes"} {
		if fp := footprint(name); fp <= l1 {
			t.Errorf("%s footprint %d B should exceed the 8 KB L1", name, fp)
		}
	}
	// Above-L2 apps carry the Inf-vs-L2 difference.
	for _, name := range []string{"ocean", "fft"} {
		if fp := footprint(name); fp <= l2 {
			t.Errorf("%s footprint %d B should exceed the 32 KB L2", name, fp)
		}
	}
	// Small-footprint apps keep their racy lines resident (water-n2's
	// story depends on vector history SURVIVING in cache while scalar
	// clocks drift too far).
	for _, name := range []string{"water-sp", "fmm", "radiosity"} {
		if fp := footprint(name); fp >= l2 {
			t.Errorf("%s footprint %d B should stay under the 32 KB L2", name, fp)
		}
	}
}

// TestSyncInstanceBudget guards injection diversity: every app must offer
// enough countable sync instances that the random target rarely repeats.
func TestSyncInstanceBudget(t *testing.T) {
	for _, app := range All() {
		res, err := sim.New(sim.Config{Seed: 3, Jitter: 7}, app.Build(1, 4)).Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.SyncInstances < 20 {
			t.Errorf("%s has only %d injectable sync instances", app.Name, res.SyncInstances)
		}
	}
}
