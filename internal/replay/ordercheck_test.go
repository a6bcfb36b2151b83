package replay

import (
	"fmt"
	"testing"

	"cord/internal/clock"
	"cord/internal/core"
	"cord/internal/memsys"
	"cord/internal/sim"
	"cord/internal/trace"
	"cord/internal/workload"
)

// orderChecker wraps a CORD detector and verifies the replay-soundness
// invariant directly: for every pair of conflicting accesses, the earlier
// one's epoch time must be strictly smaller than the later one's (equal
// times replay in arbitrary order and would be unsound).
type orderChecker struct {
	det       *core.Detector
	unwrapped []uint64
	last      []clock.Scalar
	hist      map[memsys.Addr][]chkAccess
	violation string
}

type chkAccess struct {
	thread int
	kind   trace.Kind
	time   uint64
	seq    uint64
}

func newOrderChecker(threads, d int) *orderChecker {
	det := core.New(core.Config{Threads: threads, D: d, Record: true})
	oc := &orderChecker{
		det:       det,
		unwrapped: make([]uint64, threads),
		last:      make([]clock.Scalar, threads),
		hist:      make(map[memsys.Addr][]chkAccess),
	}
	for i := range oc.last {
		oc.last[i] = det.Clock(i)
		oc.unwrapped[i] = 1
	}
	return oc
}

func (oc *orderChecker) Name() string { return "order-check" }

func (oc *orderChecker) OnAccess(a trace.Access) trace.Report {
	rep := oc.det.OnAccess(a)
	cur := oc.det.Clock(a.Thread)
	delta := clock.Dist(oc.last[a.Thread], cur)
	if delta < 0 {
		oc.fail(fmt.Sprintf("thread %d clock regressed at seq %d", a.Thread, a.Seq))
		delta = 0
	}
	oc.unwrapped[a.Thread] += uint64(delta)
	oc.last[a.Thread] = cur
	epochTime := oc.unwrapped[a.Thread]
	if a.Class == trace.Sync && a.Kind == trace.Write {
		// The post-sync-write increment happens after the access: the
		// access itself belongs to the pre-increment epoch.
		epochTime--
	}
	for _, p := range oc.hist[a.Addr] {
		if p.thread == a.Thread {
			continue
		}
		if p.kind == trace.Read && a.Kind == trace.Read {
			continue
		}
		if p.time >= epochTime {
			oc.fail(fmt.Sprintf("conflict order violation @%s: T%d %s (seq %d, epoch %d) then T%d %s %s (seq %d, epoch %d)",
				a.Addr, p.thread, p.kind, p.seq, p.time, a.Thread, a.Kind, a.Class, a.Seq, epochTime))
		}
	}
	oc.hist[a.Addr] = append(oc.hist[a.Addr], chkAccess{a.Thread, a.Kind, epochTime, a.Seq})
	return rep
}

func (oc *orderChecker) fail(s string) {
	if oc.violation == "" {
		oc.violation = s
	}
}

func (oc *orderChecker) Migrate(thread, proc int, instr uint64) { oc.det.Migrate(thread, proc, instr) }
func (oc *orderChecker) ThreadDone(thread int, totalInstr uint64) {
	oc.det.ThreadDone(thread, totalInstr)
}
func (oc *orderChecker) Finish() { oc.det.Finish() }

// TestConflictOrderingInvariant checks, on every workload, that CORD's
// recorded logical times strictly order every pair of conflicting accesses —
// the property deterministic replay rests on.
func TestConflictOrderingInvariant(t *testing.T) {
	for _, app := range workload.All() {
		t.Run(app.Name, func(t *testing.T) {
			for seed := uint64(1); seed <= 2; seed++ {
				prog := app.Build(1, 4)
				oc := newOrderChecker(4, 16)
				_, err := sim.New(sim.Config{Seed: seed, Jitter: 7, Observers: []trace.Observer{oc}}, prog).Run()
				if err != nil {
					t.Fatal(err)
				}
				if oc.violation != "" {
					t.Fatalf("seed %d: %s", seed, oc.violation)
				}
			}
		})
	}
}

// TestConflictOrderingUnderInjection checks the same invariant on racy
// (injected) executions — order recording must remain sound precisely when
// the program misbehaves.
func TestConflictOrderingUnderInjection(t *testing.T) {
	for _, name := range []string{"raytrace", "cholesky", "fft", "water-sp", "lu", "volrend"} {
		app, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for inj := uint64(1); inj <= 9; inj += 4 {
			prog := app.Build(1, 4)
			oc := newOrderChecker(4, 16)
			res, err := sim.New(sim.Config{Seed: 5, Jitter: 7, InjectSkip: inj, Observers: []trace.Observer{oc}}, prog).Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Hung {
				continue
			}
			if oc.violation != "" {
				t.Fatalf("%s inj %d: %s", name, inj, oc.violation)
			}
		}
	}
}
