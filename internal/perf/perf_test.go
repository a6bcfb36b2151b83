package perf

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestKernelsSmoke executes every kernel body a few iterations under the
// plain test suite, so a kernel that panics or regresses API-wise fails
// tier-1 immediately instead of waiting for the next bench run.
func TestKernelsSmoke(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range Kernels() {
		if k.Name == "" || seen[k.Name] {
			t.Fatalf("kernel name %q empty or duplicated", k.Name)
		}
		seen[k.Name] = true
		body := k.Setup()
		for i := 0; i < 3; i++ {
			body(i)
		}
	}
}

// TestBoundedCacheKernelsDoNotAllocate: a bounded cache allocates only in
// New, and Insert fills its slot in place, so the bounded cache kernels run
// without one allocation once set up.
func TestBoundedCacheKernelsDoNotAllocate(t *testing.T) {
	for name, setup := range map[string]func() func(int){
		"cache/bounded-churn": setupCacheBounded,
		"cache/mru-hit":       setupCacheMRUHit,
	} {
		body := setup()
		i := runCycles(body, 0, 1)
		if allocs, _ := allocsPerOp(body, i, 1); allocs != 0 {
			t.Errorf("%s allocates %.4f allocs/op, want 0", name, allocs)
		}
	}
}

// TestUnboundedCacheChurnDoesNotAllocate: Remove hands its slot to a free
// list that the next Insert takes from, so once the working set has been
// resident the unbounded cache's invalidate-then-refetch churn allocates
// nothing, not even the arena's amortised chunks.
func TestUnboundedCacheChurnDoesNotAllocate(t *testing.T) {
	body := setupCacheUnbounded()
	i := runCycles(body, 0, 2)
	if allocs, bytes := allocsPerOp(body, i, 4); allocs != 0 || bytes != 0 {
		t.Errorf("cache/unbounded-churn allocates %.4f allocs/op, %.4f B/op, want 0", allocs, bytes)
	}
}

// BenchmarkKernel exposes the suite to `go test -bench`. CI runs it with
// -benchtime=1x as a smoke pass; use larger benchtimes for real measurement.
func BenchmarkKernel(b *testing.B) {
	for _, k := range Kernels() {
		b.Run(k.Name, k.Bench)
	}
}

func TestReportRoundTrip(t *testing.T) {
	r := NewReport()
	r.Benchmarks = append(r.Benchmarks, BenchResult{
		Name: "memsys/store-load", Iterations: 1000, NsPerOp: 12.5, AllocsPerOp: 0, BytesPerOp: 0,
	})
	r.Campaign = &CampaignPerf{Apps: []string{"raytrace"}, Injections: 2, Procs: 1, WallClockMs: 321.5}

	path := filepath.Join(t.TempDir(), "BENCH_perf.json")
	if err := Write(path, r); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Fatalf("round trip mismatch:\n%+v\nvs\n%+v", r, got)
	}
}
