// Package machine is the timing model of the simulated CMP (§3.1): private
// inclusive L1/L2 caches, a snooping data bus, the half-rate
// address/timestamp bus, and a 600-cycle main memory. It implements the
// engine's CostModel interface and is where CORD's performance overhead
// materializes: race-check broadcasts and memory-timestamp updates reported
// by the CORD detector occupy the address/timestamp bus and contend with
// ordinary coherence traffic, occasionally delaying instruction retirement.
//
// The hardware is the paper's one chip, so its parameters are constants.
package machine

import (
	"cord/internal/memsys"
	"cord/internal/trace"
)

// The machine's latencies and bus occupancies, in cycles of the 4 GHz cores.
const (
	// l1HitCycles is an L1 hit, which the core's pipeline hides; the
	// paper gives no figure, so the model charges one cycle.
	l1HitCycles = 1
	// l2HitCycles is a local L2 hit; the model's choice, as for L1.
	l2HitCycles = 10
	// c2cCycles is the on-chip L2-to-L2 round trip (§3.1).
	c2cCycles = 20
	// memCycles is the main-memory round trip (§3.1).
	memCycles = 600
	// dataBusCycles is one 64-byte line on the 128-bit 1 GHz data bus
	// (§3.1): 4 bus cycles, 16 core cycles at the 4:1 clock ratio.
	dataBusCycles = 16
	// addrBusCycles is one address/timestamp-bus slot: that bus runs at
	// half the data bus's rate (§4.1), so 8 core cycles.
	addrBusCycles = 8
	// retireWindow is how many cycles of address-bus queueing a pending
	// race check hides behind out-of-order retirement before it stalls
	// its instruction (§3.1: the processor consumes data without waiting
	// for the comparison; only checks still in flight at retirement
	// delay it). The paper gives no figure; the model's choice.
	retireWindow = 256
)

// resource is a serially occupied bus or channel: a transaction requested
// at now occupies it from max(now, freeAt) for its duration.
type resource struct {
	freeAt uint64
	busy   uint64 // total occupied cycles
	trans  uint64 // transaction count
}

// acquire schedules a transaction of duration cycles requested at now. It
// returns the cycle the transaction completes and how long it queued behind
// earlier ones.
func (r *resource) acquire(now, duration uint64) (end, queued uint64) {
	start := max(now, r.freeAt)
	r.freeAt = start + duration
	r.busy += duration
	r.trans++
	return r.freeAt, start - now
}

// Config has no fields: the machine is the paper's fixed chip. It and
// DefaultConfig remain because perfbench builds the machine with
// New(DefaultConfig()).
type Config struct{}

// DefaultConfig returns the paper's machine.
func DefaultConfig() Config { return Config{} }

// Machine is one simulated chip. It implements sim.CostModel.
type Machine struct {
	data resource // on-chip data bus
	addr resource // address/timestamp bus (half rate)
	mem  resource // memory channel

	// procs holds each processor's private hierarchy, grown on the first
	// access from a processor beyond it.
	procs []*hierarchy

	// stats
	misses, c2c, memFetch, upgrades uint64
	dirtyInvals                     uint64
	checkStalls                     uint64
	stallCycles                     uint64
}

// New builds an idle machine.
func New(Config) *Machine { return &Machine{} }

// AccessCost implements the CostModel contract: it simulates the access
// against the cache hierarchy and interconnect and returns the cycles the
// issuing thread is charged.
func (m *Machine) AccessCost(now uint64, proc int, a trace.Access, rep trace.Report) uint64 {
	l := memsys.LineOf(a.Addr)
	// A processor not seen before gets a hierarchy, as do those below it.
	// They start empty, and an empty hierarchy answers no probe or
	// invalidation, so creating them late changes no timing.
	for len(m.procs) <= proc {
		m.procs = append(m.procs, newHierarchy())
	}
	h := m.procs[proc]

	// access touches only the local hierarchy, so the remote probe can
	// follow it; only a miss or a write reads its answer. A write hit on an
	// exclusive line skips the probe, as a hit on an E or M line makes no
	// bus transaction: every other hierarchy must miss, and so probe and
	// clear the bit, before it can hold the line, so the skipped probe
	// would have found nothing.
	write := a.Kind == trace.Write
	level, ln, victim, evicted := h.access(l, write)
	sharedRemotely := false
	if level == missLevel || (write && !ln.excl) {
		sharedRemotely = m.sharedRemotely(proc, l)
	}
	if level == missLevel || write {
		// The probe found no remote holder, or the write invalidates
		// every remote copy below. ln is still valid: the probe and the
		// invalidations touch only the other hierarchies.
		ln.excl = !sharedRemotely || write
	}
	var end uint64
	switch level {
	case l1Hit:
		end = now + l1HitCycles
	case l2Hit:
		end = now + l2HitCycles
	default:
		m.misses++
		reqDone, _ := m.addr.acquire(now, addrBusCycles)
		if sharedRemotely {
			m.c2c++
			dataDone, _ := m.data.acquire(reqDone, dataBusCycles)
			end = dataDone + c2cCycles
		} else {
			m.memFetch++
			memDone, _ := m.mem.acquire(reqDone, memCycles)
			end, _ = m.data.acquire(memDone, dataBusCycles)
		}
	}

	if write && sharedRemotely {
		if level == l1Hit || level == l2Hit {
			// Upgrade: invalidation broadcast on the address bus.
			m.upgrades++
			m.addr.acquire(end, addrBusCycles)
		}
		for p, rh := range m.procs {
			if p == proc {
				continue
			}
			if dirty, _ := rh.invalidate(l); dirty {
				// Invalidating a remote *dirty* copy flushes its data:
				// a cache-to-cache supply on the data bus plus the
				// memory write-back, like an eviction. The transfer
				// happens off the writer's critical path, so it
				// occupies the buses without delaying retirement.
				m.dirtyInvals++
				m.writeBack(end)
			}
		}
	}

	if evicted && victim.Payload.dirty {
		// Dirty write-back occupies the data bus and the memory channel
		// but does not delay the issuing instruction.
		m.writeBack(end)
	}

	// CORD traffic: race-check broadcasts and memory-timestamp update
	// transactions occupy the address/timestamp bus. A check delays
	// retirement only by the queueing it cannot hide in retireWindow.
	for range rep.CheckRequests {
		if _, queued := m.addr.acquire(end, addrBusCycles); queued > retireWindow {
			stall := queued - retireWindow
			end += stall
			m.checkStalls++
			m.stallCycles += stall
		}
	}
	for range rep.MemTsUpdates {
		m.addr.acquire(end, addrBusCycles)
	}

	return end - now
}

// writeBack puts one dirty line on the data bus at now and then into memory.
func (m *Machine) writeBack(now uint64) {
	wb, _ := m.data.acquire(now, dataBusCycles)
	m.mem.acquire(wb, memCycles)
}

// sharedRemotely is the snoop: it reports whether any processor other than
// proc holds l, and clears the exclusive bit of the copy it finds. It can
// stop at the first holder: an exclusive copy is the only one, so no other
// holder has the bit set.
func (m *Machine) sharedRemotely(proc int, l memsys.Line) bool {
	for p, rh := range m.procs {
		if p == proc {
			continue
		}
		if ln, ok := rh.l2.Peek(l); ok {
			ln.excl = false
			return true
		}
	}
	return false
}

// ComputeCost implements the CostModel contract.
func (m *Machine) ComputeCost(proc int, n uint64) uint64 { return n }

// Stats describes the machine's interconnect activity after a run.
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

// Stats returns cumulative counters.
func (m *Machine) Stats() Stats {
	return Stats{
		Misses: m.misses, CacheToCache: m.c2c, MemFetches: m.memFetch, Upgrades: m.upgrades,
		DirtyInvalidations: m.dirtyInvals,
		AddrBusBusy:        m.addr.busy, AddrBusTrans: m.addr.trans,
		DataBusBusy: m.data.busy, DataBusTrans: m.data.trans,
		CheckStalls: m.checkStalls, StallCycles: m.stallCycles,
	}
}
