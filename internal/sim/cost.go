package sim

import "cord/internal/trace"

// CostModel prices each operation in cycles of virtual time. Detection
// experiments use SimpleCost (uniform costs plus engine jitter, which varies
// interleavings across seeds); the performance-overhead experiment plugs in
// the machine timing model (internal/machine), which simulates caches and
// bus contention and consumes the primary detector's traffic report.
type CostModel interface {
	// AccessCost prices one shared-memory access issued at virtual time
	// now on processor proc. rep is the primary detector's report for the
	// access (zero when no primary detector is attached). The return value
	// is the cost (cycles beyond now) charged to the issuing thread.
	AccessCost(now uint64, proc int, a trace.Access, rep trace.Report) uint64
	// ComputeCost prices n cycles of local computation.
	ComputeCost(proc int, n uint64) uint64
}

// SimpleCost is the detection-mode model: every access costs 10 cycles and
// computation is one cycle per unit. The engine's seeded jitter supplies
// interleaving diversity.
type SimpleCost struct{}

// AccessCost implements CostModel.
func (SimpleCost) AccessCost(now uint64, proc int, a trace.Access, rep trace.Report) uint64 {
	return 10
}

// ComputeCost implements CostModel.
func (SimpleCost) ComputeCost(proc int, n uint64) uint64 { return n }
