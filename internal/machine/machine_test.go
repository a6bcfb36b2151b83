package machine

import (
	"testing"

	"cord/internal/memsys"
	"cord/internal/sim"
	"cord/internal/trace"
	"cord/internal/workload"
)

// Stats is the machine's interconnect activity after a run, as the tests
// read it.
type Stats struct {
	Misses       uint64
	CacheToCache uint64
	MemFetches   uint64
	Upgrades     uint64
	// DirtyInvalidations counts writes that invalidated a remote dirty copy,
	// each billed as a data-bus cache-to-cache supply plus memory write-back.
	DirtyInvalidations uint64
	AddrBusBusy        uint64
	AddrBusTrans       uint64
	DataBusBusy        uint64
	DataBusTrans       uint64
	CheckStalls        uint64
	StallCycles        uint64
}

// Stats returns the cumulative counters.
func (m *Machine) Stats() Stats {
	return Stats{
		Misses: m.misses, CacheToCache: m.c2c, MemFetches: m.memFetch, Upgrades: m.upgrades,
		DirtyInvalidations: m.dirtyInvals,
		AddrBusBusy:        m.addr.busy, AddrBusTrans: m.addr.trans,
		DataBusBusy: m.data.busy, DataBusTrans: m.data.trans,
		CheckStalls: m.checkStalls, StallCycles: m.stallCycles,
	}
}

func acc(proc int, addr memsys.Addr, kind trace.Kind) trace.Access {
	return trace.Access{Proc: proc, Thread: proc, Addr: addr, Kind: kind, Class: trace.Data}
}

func TestColdMissCostsMemoryLatency(t *testing.T) {
	m := New(DefaultConfig())
	cost := m.AccessCost(0, 0, acc(0, 0x1000, trace.Read), trace.Report{})
	// Address bus + 600-cycle memory + data bus: comfortably over 600.
	if cost < 600 {
		t.Fatalf("cold miss cost = %d, want >= 600", cost)
	}
	st := m.Stats()
	if st.Misses != 1 || st.MemFetches != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestHitIsCheap(t *testing.T) {
	m := New(DefaultConfig())
	m.AccessCost(0, 0, acc(0, 0x1000, trace.Read), trace.Report{})
	cost := m.AccessCost(100000, 0, acc(0, 0x1000, trace.Read), trace.Report{})
	if cost != l1HitCycles {
		t.Fatalf("L1 hit cost = %d", cost)
	}
}

func TestCacheToCacheCheaperThanMemory(t *testing.T) {
	m := New(DefaultConfig())
	m.AccessCost(0, 0, acc(0, 0x1000, trace.Read), trace.Report{})
	c2c := m.AccessCost(100000, 1, acc(1, 0x1000, trace.Read), trace.Report{})
	mem := m.AccessCost(200000, 2, acc(2, 0x9000, trace.Read), trace.Report{})
	if c2c >= mem {
		t.Fatalf("cache-to-cache (%d) should be cheaper than memory (%d)", c2c, mem)
	}
	if st := m.Stats(); st.CacheToCache != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestWriteInvalidatesRemoteCopies(t *testing.T) {
	m := New(DefaultConfig())
	m.AccessCost(0, 0, acc(0, 0x1000, trace.Read), trace.Report{})
	m.AccessCost(10000, 1, acc(1, 0x1000, trace.Read), trace.Report{})
	// Proc 1 writes: proc 0's copy must be invalidated -> proc 0 misses.
	m.AccessCost(20000, 1, acc(1, 0x1000, trace.Write), trace.Report{})
	cost := m.AccessCost(300000, 0, acc(0, 0x1000, trace.Read), trace.Report{})
	if cost < c2cCycles {
		t.Fatalf("read after remote write cost = %d, expected a miss", cost)
	}
}

func TestUpgradeCountsOnSharedWriteHit(t *testing.T) {
	m := New(DefaultConfig())
	m.AccessCost(0, 0, acc(0, 0x1000, trace.Read), trace.Report{})
	m.AccessCost(10000, 1, acc(1, 0x1000, trace.Read), trace.Report{})
	m.AccessCost(20000, 0, acc(0, 0x1000, trace.Write), trace.Report{}) // hit, shared -> upgrade
	if st := m.Stats(); st.Upgrades != 1 {
		t.Fatalf("upgrades = %d", st.Upgrades)
	}
}

// TestDirtyInvalidationBillsWriteBack: a write that invalidates a remote
// *dirty* copy must put that copy's data on the data bus (cache-to-cache
// supply + memory write-back), not silently drop it.
func TestDirtyInvalidationBillsWriteBack(t *testing.T) {
	m := New(DefaultConfig())
	// Proc 1 writes a line cold: it is now dirty in proc 1's cache.
	m.AccessCost(0, 1, acc(1, 0x1000, trace.Write), trace.Report{})
	before := m.Stats()
	// Proc 0 writes the same line: c2c fill plus the invalidated dirty
	// copy's write-back — two data-bus transactions.
	m.AccessCost(100000, 0, acc(0, 0x1000, trace.Write), trace.Report{})
	st := m.Stats()
	if st.DirtyInvalidations != 1 {
		t.Fatalf("dirty invalidations = %d, want 1", st.DirtyInvalidations)
	}
	if got := st.DataBusTrans - before.DataBusTrans; got != 2 {
		t.Fatalf("data bus transactions grew by %d, want 2 (fill + write-back)", got)
	}
	// Proc 0 now holds the only copy: a further write is silent.
	m.AccessCost(200000, 0, acc(0, 0x1000, trace.Write), trace.Report{})
	if st := m.Stats(); st.DirtyInvalidations != 1 {
		t.Fatalf("exclusive rewrite billed a dirty invalidation: %+v", st)
	}
}

// TestCleanInvalidationIsSilent: invalidating a remote clean copy costs no
// data-bus transfer — only dirty copies have data to flush.
func TestCleanInvalidationIsSilent(t *testing.T) {
	m := New(DefaultConfig())
	m.AccessCost(0, 0, acc(0, 0x1000, trace.Read), trace.Report{})
	m.AccessCost(10000, 1, acc(1, 0x1000, trace.Read), trace.Report{}) // clean in both
	before := m.Stats()
	m.AccessCost(20000, 0, acc(0, 0x1000, trace.Write), trace.Report{}) // upgrade
	st := m.Stats()
	if st.DirtyInvalidations != 0 {
		t.Fatalf("clean invalidation counted as dirty: %+v", st)
	}
	if st.DataBusTrans != before.DataBusTrans {
		t.Fatalf("clean invalidation used the data bus: %+v", st)
	}
}

func TestCordTrafficOccupiesAddrBus(t *testing.T) {
	m := New(DefaultConfig())
	m.AccessCost(0, 0, acc(0, 0x1000, trace.Read), trace.Report{})
	before := m.Stats().AddrBusTrans
	m.AccessCost(10000, 0, acc(0, 0x1000, trace.Read), trace.Report{CheckRequests: 2, MemTsUpdates: 1})
	after := m.Stats().AddrBusTrans
	if after-before != 3 {
		t.Fatalf("addr bus transactions grew by %d, want 3", after-before)
	}
}

// TestRetireWindowBoundary: a check that queues exactly retireWindow cycles
// still retires on time; one slot more stalls the access by that slot.
func TestRetireWindowBoundary(t *testing.T) {
	m := New(DefaultConfig())
	m.AccessCost(0, 0, acc(0, 0x1000, trace.Read), trace.Report{})
	// On an idle bus the k-th check of a burst queues k slots.
	fits := int32(retireWindow/addrBusCycles + 1)
	cost := m.AccessCost(10000, 0, acc(0, 0x1000, trace.Read), trace.Report{CheckRequests: fits})
	if st := m.Stats(); st.CheckStalls != 0 || cost != l1HitCycles {
		t.Fatalf("%d checks within the window: cost %d, stats %+v", fits, cost, st)
	}
	cost = m.AccessCost(20000, 0, acc(0, 0x1000, trace.Read), trace.Report{CheckRequests: fits + 1})
	st := m.Stats()
	if st.CheckStalls != 1 || st.StallCycles != addrBusCycles || cost != l1HitCycles+addrBusCycles {
		t.Fatalf("%d checks, one past the window: cost %d, stats %+v", fits+1, cost, st)
	}
}

func TestCheckStallOnlyUnderContention(t *testing.T) {
	m := New(DefaultConfig())
	m.AccessCost(0, 0, acc(0, 0x1000, trace.Read), trace.Report{})
	// Single check on an idle bus: no retirement stall.
	m.AccessCost(10000, 0, acc(0, 0x1000, trace.Read), trace.Report{CheckRequests: 1})
	if st := m.Stats(); st.CheckStalls != 0 {
		t.Fatalf("idle-bus check stalled: %+v", st)
	}
	// A burst of checks at one instant must eventually exceed the retire
	// window and stall.
	m.AccessCost(20000, 0, acc(0, 0x1000, trace.Read), trace.Report{CheckRequests: 40})
	if st := m.Stats(); st.CheckStalls == 0 {
		t.Fatal("burst of checks never stalled")
	}
}

func TestComputeCost(t *testing.T) {
	m := New(DefaultConfig())
	if m.ComputeCost(0, 17) != 17 {
		t.Fatal("compute cost not 1 cycle per unit")
	}
}

// TestMoreProcessorsThanThePaper: the machine sizes itself from the
// processors it prices, so an 8-processor run completes and uses every
// processor's hierarchy.
func TestMoreProcessorsThanThePaper(t *testing.T) {
	const procs = 8
	app, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	m := New(DefaultConfig())
	res, err := sim.New(sim.Config{Seed: 1, Procs: procs, Cost: m}, app.Build(1, procs)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Hung {
		t.Fatal("run hung")
	}
	if len(m.procs) != procs {
		t.Fatalf("machine has %d hierarchies, want %d", len(m.procs), procs)
	}
	for p := range m.procs {
		n := 0
		m.procs[p].l2.ForEach(func(memsys.Line, *l2Line) { n++ })
		if n == 0 {
			t.Errorf("processor %d's hierarchy holds no line", p)
		}
	}
}
