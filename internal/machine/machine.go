// Package machine is the timing model of the simulated 4-processor CMP
// (§3.1): private inclusive L1/L2 caches, a snooping data bus, the half-rate
// address/timestamp bus, and a 600-cycle main memory. It implements the
// engine's CostModel interface and is where CORD's performance overhead
// materializes: race-check broadcasts and memory-timestamp updates reported
// by the CORD detector occupy the address/timestamp bus and contend with
// ordinary coherence traffic, occasionally delaying instruction retirement.
package machine

import (
	"cord/internal/bus"
	"cord/internal/cache"
	"cord/internal/memsys"
	"cord/internal/trace"
)

// Config sizes the machine.
type Config struct {
	Procs     int
	Hierarchy cache.HierarchyConfig
	Timing    bus.Timing
	// RetireWindow is the number of cycles of address-bus queueing a
	// pending CORD race check may hide behind out-of-order retirement
	// before it stalls the issuing instruction (§3.1: the processor
	// consumes data without waiting for the comparison; only checks still
	// in flight at retirement delay it).
	RetireWindow uint64
}

// DefaultConfig returns the paper's machine.
func DefaultConfig() Config {
	return Config{
		Procs:        4,
		Hierarchy:    cache.DefaultHierarchy(),
		Timing:       bus.DefaultTiming(),
		RetireWindow: 256,
	}
}

// Machine is one simulated chip. It implements sim.CostModel.
type Machine struct {
	cfg    Config
	fabric *bus.Fabric
	procs  []*cache.Hierarchy

	// stats
	misses, c2c, memFetch, upgrades uint64
	dirtyInvals                     uint64
	checkStalls                     uint64
	stallCycles                     uint64
}

// New builds an idle machine.
func New(cfg Config) *Machine {
	if cfg.Procs <= 0 {
		cfg.Procs = 4
	}
	m := &Machine{cfg: cfg, fabric: bus.NewFabric(cfg.Timing)}
	for i := 0; i < cfg.Procs; i++ {
		m.procs = append(m.procs, cache.NewHierarchy(cfg.Hierarchy))
	}
	return m
}

// AccessCost implements the CostModel contract: it simulates the access
// against the cache hierarchy and interconnect and returns the cycles the
// issuing thread is charged.
func (m *Machine) AccessCost(now uint64, proc int, a trace.Access, rep trace.Report) uint64 {
	t := m.cfg.Timing
	l := memsys.LineOf(a.Addr)
	h := m.procs[proc]

	// Access touches only the local hierarchy, so the remote probe can
	// follow it; only a miss or a write reads its answer.
	level, victim, evicted := h.Access(l, a.Kind == trace.Write)
	sharedRemotely := false
	if level == cache.MissLevel || a.Kind == trace.Write {
		sharedRemotely = m.sharedRemotely(proc, l)
	}
	end := now
	switch level {
	case cache.L1Hit:
		end = now + t.L1HitCycles
	case cache.L2Hit:
		end = now + t.L2HitCycles
	default:
		m.misses++
		reqDone := m.fabric.Addr.Acquire(now, t.AddrBusCycles)
		if sharedRemotely {
			m.c2c++
			dataDone := m.fabric.Data.Acquire(reqDone, t.DataBusCycles)
			end = dataDone + t.CacheToCacheCycles
		} else {
			m.memFetch++
			memDone := m.fabric.Mem.Acquire(reqDone, t.MemoryCycles)
			end = m.fabric.Data.Acquire(memDone, t.DataBusCycles)
		}
	}

	if a.Kind == trace.Write {
		if sharedRemotely {
			if level == cache.L1Hit || level == cache.L2Hit {
				// Upgrade: invalidation broadcast on the address bus.
				m.upgrades++
				m.fabric.Addr.Acquire(end, t.AddrBusCycles)
			}
			for p, rh := range m.procs {
				if p == proc {
					continue
				}
				if dirty, _ := rh.Invalidate(l); dirty {
					// Invalidating a remote *dirty* copy flushes its data:
					// a cache-to-cache supply on the data bus plus the
					// memory write-back, like an eviction. The transfer
					// happens off the writer's critical path, so it
					// occupies the buses without delaying retirement.
					m.dirtyInvals++
					wb := m.fabric.Data.Acquire(end, t.DataBusCycles)
					m.fabric.Mem.Acquire(wb, t.MemoryCycles)
				}
			}
		}
	}

	if evicted && victim.Payload {
		// Dirty write-back occupies the data bus and the memory channel
		// but does not delay the issuing instruction.
		wb := m.fabric.Data.Acquire(end, t.DataBusCycles)
		m.fabric.Mem.Acquire(wb, t.MemoryCycles)
	}

	// CORD traffic: race-check broadcasts and memory-timestamp update
	// transactions occupy the address/timestamp bus. A check delays
	// retirement only by the queueing it cannot hide in RetireWindow.
	for i := 0; i < rep.CheckRequests; i++ {
		delay := m.fabric.Addr.PeekDelay(end)
		m.fabric.Addr.Acquire(end, t.AddrBusCycles)
		if delay > m.cfg.RetireWindow {
			stall := delay - m.cfg.RetireWindow
			end += stall
			m.checkStalls++
			m.stallCycles += stall
		}
	}
	for i := 0; i < rep.MemTsUpdates; i++ {
		m.fabric.Addr.Acquire(end, t.AddrBusCycles)
	}

	return end - now
}

// sharedRemotely reports whether any processor other than proc holds l.
func (m *Machine) sharedRemotely(proc int, l memsys.Line) bool {
	for p, rh := range m.procs {
		if p != proc && rh.Contains(l) {
			return true
		}
	}
	return false
}

// ComputeCost implements the CostModel contract.
func (m *Machine) ComputeCost(proc int, n uint64) uint64 { return n }

// Stats describes the machine's interconnect activity after a run. The json
// tags are the stable wire encoding used by exported benchmark artifacts.
type Stats struct {
	Misses       uint64 `json:"misses"`
	CacheToCache uint64 `json:"cache_to_cache"`
	MemFetches   uint64 `json:"mem_fetches"`
	Upgrades     uint64 `json:"upgrades"`
	// DirtyInvalidations counts writes that invalidated a remote dirty copy,
	// each billed as a data-bus cache-to-cache supply plus memory write-back.
	DirtyInvalidations uint64 `json:"dirty_invalidations"`
	AddrBusBusy        uint64 `json:"addr_bus_busy"`
	AddrBusTrans       uint64 `json:"addr_bus_trans"`
	DataBusBusy        uint64 `json:"data_bus_busy"`
	DataBusTrans       uint64 `json:"data_bus_trans"`
	CheckStalls        uint64 `json:"check_stalls"`
	StallCycles        uint64 `json:"stall_cycles"`
}

// Stats returns cumulative counters.
func (m *Machine) Stats() Stats {
	ab, at := m.fabric.Addr.Stats()
	db, dt := m.fabric.Data.Stats()
	return Stats{
		Misses: m.misses, CacheToCache: m.c2c, MemFetches: m.memFetch, Upgrades: m.upgrades,
		DirtyInvalidations: m.dirtyInvals,
		AddrBusBusy:        ab, AddrBusTrans: at,
		DataBusBusy: db, DataBusTrans: dt,
		CheckStalls: m.checkStalls, StallCycles: m.stallCycles,
	}
}
